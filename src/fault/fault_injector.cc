#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/obs/tracer.h"

namespace recssd
{

FaultInjector::FaultInjector(EventQueue &eq, const DeviceFaultConfig &cfg,
                             FlashArray &flash, Ftl &ftl,
                             HostController &ctrl,
                             const std::string &track_prefix)
    : eq_(eq), cfg_(cfg), flash_(flash), ftl_(ftl), ctrl_(ctrl),
      trackName_(track_prefix + "fault")
{
}

void
FaultInjector::arm()
{
    // An occurrence's draws, in order: jitter on its start, then its
    // channel and die (for ch=-1 / die=-1).
    struct Occurrence
    {
        Tick start;
        unsigned ch = 0, die = 0;
    };
    auto draw = [this](const FaultScenario &s, std::uint64_t i, Rng &rng) {
        const auto &fp = flash_.params();
        Occurrence o{s.at + i * s.period};
        if (s.jitter > 0)
            o.start += rng.uniformInt(s.jitter);
        if (s.kind == FaultKind::DieStall) {
            o.ch = s.channel >= 0 ? static_cast<unsigned>(s.channel)
                                  : static_cast<unsigned>(
                                        rng.uniformInt(fp.numChannels));
            o.die = s.die >= 0 ? static_cast<unsigned>(s.die)
                               : static_cast<unsigned>(
                                     rng.uniformInt(fp.diesPerChannel));
            recssd_assert(o.ch < fp.numChannels && o.die < fp.diesPerChannel,
                          "fault plan: ch/die out of range");
        }
        return o;
    };
    auto draws = [](const FaultScenario &s) {
        return s.jitter > 0 || (s.kind == FaultKind::DieStall &&
                                (s.channel < 0 || s.die < 0));
    };
    // Every draw comes from one Rng, in scenario-then-occurrence order.
    // Each scenario is one lazy series drawing from its own copy of
    // that Rng; a dry pass then advances the Rng past the series'
    // draws, so the next scenario draws what eager arming drew.
    Rng rng(cfg_.seed);
    const auto &scenarios = cfg_.scenarios;
    for (auto it = scenarios.begin(); it != scenarios.end(); ++it) {
        const FaultScenario &s = *it;
        Rng own = rng;
        const Occurrence first = draw(s, 0, own);
        eq_.scheduleSeries(first.start, s.count,
                           [this, s, draw, own, o = first](
                               std::size_t i, Tick &next) mutable {
                               const Occurrence due = o;
                               o = draw(s, i + 1, own);
                               next = o.start;
                               fire(s, due.ch, due.die);
                           });
        if (std::any_of(it + 1, scenarios.end(), draws)) {
            for (std::uint64_t i = 0; i < s.count; ++i)
                draw(s, i, rng);
        }
    }
}

void
FaultInjector::traceWindow(const char *name, Tick duration)
{
    if (Tracer *tracer = tracerOf(eq_)) {
        tracer->span(tracer->track(trackName_), name, Phase::Other,
                     /*req=*/0, eq_.now(), eq_.now() + duration);
    }
}

void
FaultInjector::fire(const FaultScenario &s, unsigned ch, unsigned die)
{
    switch (s.kind) {
      case FaultKind::DieStall:
        dieStalls_.inc();
        traceWindow("die_stall", s.duration);
        flash_.stallDie(ch, die, s.duration);
        break;
      case FaultKind::FirmwarePause:
        fwPauses_.inc();
        traceWindow("fw_pause", s.duration);
        ftl_.injectFirmwarePause(s.duration);
        break;
      case FaultKind::ReadInflation:
        inflations_.inc();
        traceWindow("read_inflation", s.duration);
        flash_.addReadInflation(eq_.now() + s.duration, s.factor);
        break;
      case FaultKind::DeviceDropout:
        dropouts_.inc();
        if (Tracer *tracer = tracerOf(eq_))
            tracer->instant(tracer->track(trackName_), "dropout");
        ctrl_.killNow();
        break;
    }
}

}  // namespace recssd
