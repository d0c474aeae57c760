#include "src/embedding/baseline_backend.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"
#include "src/embedding/synthetic_values.h"
#include "src/ndp/attr_codec.h"
#include "src/obs/tracer.h"

namespace recssd
{

namespace
{

constexpr std::uint32_t kNoPage = ~std::uint32_t{0};

}  // namespace

struct BaselineSsdSlsBackend::OpState
{
    EmbeddingTableDesc table;
    std::uint64_t traceId = 0;
    /** One NVMe read each: a page and the run of `entries` it serves. */
    struct Page
    {
        Lpn lpn = 0;
        std::uint32_t first = 0;
        std::uint32_t count = 0;
    };
    /** A lookup the SSD serves: its result sample, its page's index
     *  in `pages` and its row. */
    struct Entry
    {
        std::uint32_t sample = 0;
        std::uint32_t page = 0;
        RowId row = 0;
    };
    /** Pages in first-seen order. */
    std::vector<Page> pages;
    /** SSD-served lookups grouped by page, in lookup order within a
     *  page. */
    std::vector<Entry> entries;
    /** entries x dim floats: each lookup's vector, extracted when its
     *  page's DMA lands and accumulated after the extract work. */
    std::vector<float> staging;
    std::size_t next = 0;
    std::size_t inFlight = 0;
    bool hitWorkPending = false;
    bool completed = false;
    SlsResult result;
    Done done;

    void
    maybeComplete()
    {
        if (!completed && !hitWorkPending && inFlight == 0 &&
            next >= pages.size()) {
            completed = true;
            done(result);
        }
    }
};

BaselineSsdSlsBackend::BaselineSsdSlsBackend(EventQueue &eq, HostCpu &cpu,
                                             UnvmeDriver &driver,
                                             QueueAllocator &queues,
                                             Options options)
    : eq_(eq), cpu_(cpu), driver_(driver), queues_(queues), options_(options)
{
}

void
BaselineSsdSlsBackend::run(const SlsOp &op, Done done)
{
    recssd_assert(op.table != nullptr, "SLS op without table");
    auto state = std::make_shared<OpState>();
    state->table = *op.table;
    state->traceId = op.traceId;
    state->result.assign(op.batch() * op.table->dim, 0.0f);
    state->done = std::move(done);

    const EmbeddingTableDesc &table = state->table;
    std::uint64_t cache_hits = 0;
    const std::size_t lookups = op.totalLookups();
    if (options_.coalescePages) {
        pageIndex_.assign(std::bit_ceil(std::max<std::size_t>(2 * lookups, 16)),
                          {0, kNoPage});
    }
    // SSD-served lookups in lookup order.
    std::vector<OpState::Entry> misses;
    misses.reserve(lookups);
    state->pages.reserve(lookups);

    for (std::uint32_t b = 0; b < op.indices.size(); ++b) {
        for (RowId row : op.indices[b]) {
            if (options_.hostCache) {
                // The cache is shared across shard slices of the same
                // table, so entries are keyed by global row id.
                if (const float *vec = options_.hostCache->get(
                        table.id, table.globalRow(row))) {
                    cacheServed_.inc();
                    ++cache_hits;
                    float *res = state->result.data() +
                                 std::size_t(b) * table.dim;
                    for (std::uint32_t e = 0; e < table.dim; ++e)
                        res[e] += vec[e];
                    continue;
                }
                // A real (sequential) operator would have this row
                // cached by the time a later lookup reaches it: the
                // fetch below populates the cache mid-operation. Fill
                // the entry now so intra-op reuse hits, exactly as it
                // would at processing time.
                options_.hostCache->fill(
                    table.id, table.globalRow(row), table.dim,
                    [&](std::span<float> out) {
                        synthetic::rowValues(table, row, out);
                    });
            }
            Lpn lpn = table.lpnOf(row);
            std::uint32_t page = options_.coalescePages
                                     ? pageOf(*state, lpn)
                                     : addPage(*state, lpn);
            ++state->pages[page].count;
            misses.push_back(OpState::Entry{b, page, row});
        }
    }

    // Group the lookups by page (a stable counting sort), so each
    // page's lookups are one run of `entries`.
    std::uint32_t first = 0;
    for (OpState::Page &page : state->pages) {
        page.first = first;
        first += page.count;
        page.count = 0;
    }
    state->entries.resize(misses.size());
    for (const OpState::Entry &miss : misses) {
        OpState::Page &page = state->pages[miss.page];
        state->entries[page.first + page.count++] = miss;
    }
    state->staging.resize(misses.size() * table.dim);

    // The cache-served lookups are ordinary DRAM gathers on the
    // operator's thread.
    if (cache_hits > 0) {
        state->hitWorkPending = true;
        SpanId hit_span = invalidSpan;
        if (Tracer *tracer = tracerOf(eq_)) {
            hit_span = tracer->begin(tracer->track("host.sls"),
                                     "cache_gather", Phase::HostCompute,
                                     state->traceId);
        }
        cpu_.run(cpu_.dramLookupCost(table.vectorBytes()) * cache_hits,
                 [this, state, hit_span]() {
                     if (Tracer *tracer = tracerOf(eq_))
                         tracer->end(hit_span);
                     state->hitWorkPending = false;
                     state->maybeComplete();
                 });
    }

    if (state->pages.empty()) {
        if (cache_hits == 0) {
            // Fully degenerate op (empty lists): complete next tick.
            eq_.scheduleAfter(1 * nsec, [state]() { state->maybeComplete(); });
        }
        return;
    }

    // Worker chains matched to I/O queues (§4.2). Each chain owns a
    // queue and drains this operation's page list in order, so
    // concurrent operations complete in submission order rather than
    // fair-sharing — which is what lets the inference pipeline
    // overlap a finished sub-batch's MLP with the next one's I/O.
    unsigned workers = options_.maxWorkers ? options_.maxWorkers
                                           : driver_.numQueues();
    workers = std::max(1u, workers);
    unsigned chains = static_cast<unsigned>(
        std::min<std::size_t>(workers, state->pages.size()));
    for (unsigned w = 0; w < chains; ++w) {
        SpanId wait_span = invalidSpan;
        if (Tracer *tracer = tracerOf(eq_)) {
            wait_span = tracer->begin(tracer->track("host.sls"),
                                      "queue_wait", Phase::HostQueueWait,
                                      state->traceId);
        }
        queues_.acquire([this, state, wait_span](unsigned q) {
            if (Tracer *tracer = tracerOf(eq_))
                tracer->end(wait_span);
            pump(state, q);
        });
    }
}

std::uint32_t
BaselineSsdSlsBackend::addPage(OpState &state, Lpn lpn)
{
    state.pages.push_back(OpState::Page{lpn, 0, 0});
    return static_cast<std::uint32_t>(state.pages.size() - 1);
}

std::uint32_t
BaselineSsdSlsBackend::pageOf(OpState &state, Lpn lpn)
{
    const std::size_t mask = pageIndex_.size() - 1;
    for (std::size_t b = lpn & mask;; b = (b + 1) & mask) {
        auto &[key, page] = pageIndex_[b];
        if (page == kNoPage) {
            key = lpn;
            page = addPage(state, lpn);
            return page;
        }
        if (key == lpn)
            return page;
    }
}

void
BaselineSsdSlsBackend::pump(const std::shared_ptr<OpState> &state,
                            unsigned q)
{
    if (state->next >= state->pages.size()) {
        // This chain is done; hand the queue to the next waiter.
        queues_.release(q);
        state->maybeComplete();
        return;
    }
    auto task = static_cast<std::uint32_t>(state->next++);
    ++state->inFlight;

    pageReads_.inc();
    driver_.readPage(
        q, state->pages[task].lpn,
        [this, state, task, q](const PageView &view) {
            extract(state, task, q, view);
        },
        state->traceId);
}

void
BaselineSsdSlsBackend::extract(const std::shared_ptr<OpState> &state,
                               std::uint32_t task, unsigned q,
                               const PageView &view)
{
    const EmbeddingTableDesc &table = state->table;
    const OpState::Page &pg = state->pages[task];
    // Pull every needed vector out of the DMA buffer now; the
    // extract+accumulate cost is charged per vector.
    raw_.resize(table.vectorBytes());
    for (std::uint32_t i = pg.first; i < pg.first + pg.count; ++i) {
        view.copyOut(table.pageOffsetOf(state->entries[i].row), raw_);
        float *vec = state->staging.data() + std::size_t(i) * table.dim;
        for (std::uint32_t e = 0; e < table.dim; ++e)
            vec[e] = decodeAttr(raw_, e, table.attrBytes);
    }
    // Extraction runs on the SLS worker thread that owns this queue,
    // not on the NN cores.
    Tick work = cpu_.extractCost(table.vectorBytes()) * pg.count;
    SpanId extract_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        extract_span = tracer->begin(tracer->track("host.sls"), "extract",
                                     Phase::HostCompute, state->traceId);
    }
    driver_.ioThread(q).acquire(
        work, [this, state, task, q, extract_span]() {
            if (Tracer *tracer = tracerOf(eq_))
                tracer->end(extract_span);
            const EmbeddingTableDesc &table = state->table;
            const OpState::Page &pg = state->pages[task];
            for (std::uint32_t i = pg.first; i < pg.first + pg.count; ++i) {
                float *res = state->result.data() +
                             std::size_t(state->entries[i].sample) *
                                 table.dim;
                const float *vec =
                    state->staging.data() + std::size_t(i) * table.dim;
                for (std::uint32_t e = 0; e < table.dim; ++e)
                    res[e] += vec[e];
                // (The host cache entry was populated when the fetch
                // was scheduled; see run().)
            }
            recssd_assert(state->inFlight > 0, "in-flight underflow");
            --state->inFlight;
            pump(state, q);
        });
}

}  // namespace recssd
