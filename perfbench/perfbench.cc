/**
 * @file
 * Benchmark program: runs one named workload of the repository
 * benchmark in its own process and prints one JSON line of results.
 * perfbench/run.py builds this binary, starts it, and turns that line
 * into the benchmark's metrics; see perfbench/README.md for the
 * workloads, the metrics and the layer each one belongs to.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --tmp DIR [--spans FILE] [--setup-only]
 *
 * The program prints "ready T" on its own line once set-up is done,
 * where T is the steady clock in nanoseconds (the runner reads that
 * clock just before it starts the process and reports the difference
 * as setup_s), then:
 *
 *  - with --trace 0 it repeats passes over the workload's grid until
 *    S seconds have gone, each pass with inputs derived from (seed,
 *    pass index), and reports operations per second and CPU time per
 *    operation over all passes, plus the deterministic counts of
 *    pass 0;
 *  - with --trace 1 it repeats one traced cycle over pass 0's inputs
 *    until S seconds have gone: the cells through runCampaign with a
 *    per-cell observer, the same cells re-run through the per-layer
 *    entry points with a span around each call, and, on the fault
 *    workloads (avf, rootcause), a fault chain (campaign, trial
 *    replays, bisections). Spans are kept in memory and written to
 *    FILE when the run ends.
 *
 * Every correctness check that fails counts one failed operation and
 * is reported on stderr; the exit code is then 1.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/campaign.hh"
#include "core/compiler.hh"
#include "core/parallel.hh"
#include "core/rootcause.hh"
#include "machine/minterp.hh"
#include "machine/mverifier.hh"
#include "sim/pipeline.hh"
#include "workloads/suite.hh"

using namespace turnpike;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------
// Small helpers

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User plus system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
           double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** splitmix64 of (a, b): derives every input seed from the bench seed. */
uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Correctness violations; each one is a failed operation. */
uint64_t g_failed = 0;

void
expect(bool ok, const char *fmt, ...)
{
    if (ok)
        return;
    if (++g_failed <= 20) {
        std::va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "perfbench: check failed: ");
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
    }
}

// ---------------------------------------------------------------------
// Workloads

/** One (workload, scheme) cell of a grid with its derived inputs. */
struct Cell
{
    WorkloadSpec spec;
    ResilienceConfig cfg;
    uint64_t icount = 0;
    uint64_t campaignSeed = 0;
};

/** Fixed shape of one benchmark workload. */
struct Workload
{
    std::string name;
    /** Fault campaigns (avf, rootcause) rather than golden grids. */
    bool faulty = false;
    uint32_t trials = 0;
    double missRate = 0.0;
    /** Harmful trials bisected per cell in the traced fault chain. */
    size_t maxBisect = 0;
};

// Campaign fault seeds are fixed per cell, so every pass of every run
// injects the same fault plans and the benchmark seed and pass index
// pick the workload data. The Monte Carlo draw of which trials turn
// harmful is the largest source of work variation in rootcause; this
// keeps it from moving between passes and runs.
constexpr uint64_t kFaultPlanSeed = 12345;

bool
lookupWorkload(const std::string &name, Workload &w)
{
    w.name = name;
    if (name == "sweep" || name == "sim-long")
        return true;
    if (name == "avf" || name == "rootcause") {
        w.faulty = true;
        w.trials = 48;
        w.missRate = name == "avf" ? 0.25 : 0.4;
        w.maxBisect = name == "avf" ? 2 : SIZE_MAX;
        return true;
    }
    return false;
}

/**
 * The cells of pass @p pass. Data seeds are shared by every scheme
 * of one workload within a pass (schemes are compared on equal
 * inputs) and change from pass to pass, so no pass repeats another's
 * inputs and a process-wide result cache could not shortcut a pass.
 */
std::vector<Cell>
planCells(const Workload &w, uint64_t seed, uint64_t pass)
{
    const uint64_t ps = mix(seed, pass);
    std::vector<Cell> cells;
    if (w.faulty) {
        const std::pair<const char *, const char *> picks[] = {
            {"CPU2006", "mcf"}, {"CPU2006", "gcc"}, {"SPLASH3", "radix"}};
        for (int s = 0; s < 2; s++) {
            for (size_t p = 0; p < 3; p++) {
                Cell c;
                c.spec = findWorkload(picks[p].first, picks[p].second);
                c.spec.seed = mix(ps, p);
                c.cfg = s == 0 ? ResilienceConfig::turnstile(20)
                               : ResilienceConfig::turnpike(20);
                c.icount = 200000;
                c.campaignSeed = mix(kFaultPlanSeed, cells.size());
                cells.push_back(c);
            }
        }
        return cells;
    }
    std::vector<ResilienceConfig> schemes;
    uint64_t icount = 0;
    if (w.name == "sweep") {
        // Fig. 21's ablation ladder plus the normalisation baseline.
        schemes = {ResilienceConfig::baseline(),
                   ResilienceConfig::turnstile(10),
                   ResilienceConfig::warFreeOnly(10),
                   ResilienceConfig::fastRelease(10),
                   ResilienceConfig::fastReleasePruning(10),
                   ResilienceConfig::fastReleasePruningLicm(10),
                   ResilienceConfig::fastReleasePruningLicmSched(10),
                   ResilienceConfig::fastReleasePruningLicmSchedRa(10),
                   ResilienceConfig::turnpike(10)};
        icount = 50000;
    } else {
        schemes = {ResilienceConfig::baseline(),
                   ResilienceConfig::turnstile(10),
                   ResilienceConfig::turnpike(10)};
        icount = 2000000;
    }
    const std::vector<WorkloadSpec> &suite = workloadSuite();
    for (size_t i = 0; i < suite.size(); i++) {
        WorkloadSpec spec = suite[i];
        spec.seed = mix(ps, i);
        for (const ResilienceConfig &cfg : schemes)
            cells.push_back({spec, cfg, icount, 0});
    }
    return cells;
}

AvfCampaignConfig
avfConfig(const Cell &c, uint32_t trials, double miss_rate)
{
    AvfCampaignConfig cfg;
    cfg.spec = c.spec;
    cfg.scheme = c.cfg;
    cfg.icount = c.icount;
    cfg.trials = trials;
    cfg.seed = c.campaignSeed;
    cfg.sensorMissRate = miss_rate;
    return cfg;
}

std::vector<RunRequest>
goldenRequests(const std::vector<Cell> &cells)
{
    std::vector<RunRequest> reqs;
    reqs.reserve(cells.size());
    for (const Cell &c : cells)
        reqs.push_back({c.spec, c.cfg, c.icount});
    return reqs;
}

std::string
cellName(const Cell &c)
{
    return c.spec.suite + "/" + c.spec.name + " " + c.cfg.label;
}

// ---------------------------------------------------------------------
// Checks and deterministic counts

using Counts = std::map<std::string, uint64_t>;

/** The golden-model chain: the run halts and pipeline == interpreter. */
void
checkGolden(const RunResult &r, const std::string &what)
{
    expect(r.halted, "%s: golden run did not halt", what.c_str());
    expect(r.dataHash == r.goldenHash,
           "%s: pipeline data hash %016" PRIx64
           " != interpreter hash %016" PRIx64,
           what.c_str(), r.dataHash, r.goldenHash);
}

void
addSimCounts(Counts &c, const PipelineStats &s)
{
    c["sim.insts"] += s.insts;
    c["sim.cycles"] += s.cycles;
    c["sim.sb_full_stall_cycles"] += s.sbFullStallCycles;
    c["sim.data_hazard_stall_cycles"] += s.dataHazardStallCycles;
    c["sim.rbb_full_stall_cycles"] += s.rbbFullStallCycles;
}

void
addCompileCounts(Counts &c, const StatSet &st, uint64_t code_bytes)
{
    c["passes.ckpt_inserted"] += st.get("ckpt.inserted");
    c["passes.ckpt_pruned"] += st.get("ckpt.pruned");
    c["passes.regions"] += st.get("regions");
    c["passes.spill_stores"] += st.get("ra.spill_stores");
    c["passes.code_bytes"] += code_bytes;
}

/** One record per requested trial; outcome counts sum to the trials. */
void
checkReport(const AvfReport &rep, uint32_t trials, const std::string &what)
{
    uint64_t byOutcome = 0, injected = 0;
    for (int t = 0; t < kNumFaultTargets; t++) {
        injected += rep.injected[t];
        for (int o = 0; o < kNumFaultOutcomes; o++)
            byOutcome += rep.counts[t][o];
    }
    expect(rep.trials == trials && rep.perTrial.size() == trials,
           "%s: %zu trial records for %u trials", what.c_str(),
           rep.perTrial.size(), trials);
    expect(byOutcome == trials && injected == trials,
           "%s: outcome counts sum to %" PRIu64 " of %u trials",
           what.c_str(), byOutcome, trials);
}

void
addOutcomeCounts(Counts &c, const AvfReport &rep)
{
    c["core.avf.trials"] += rep.trials;
    c["core.avf.masked"] += rep.outcomeTotal(FaultOutcome::Masked);
    c["core.avf.recovered"] += rep.outcomeTotal(FaultOutcome::Recovered);
    c["core.avf.sdc"] += rep.outcomeTotal(FaultOutcome::Sdc);
    c["core.avf.hang"] += rep.outcomeTotal(FaultOutcome::Hang);
    for (const AvfTrial &t : rep.perTrial) {
        c["core.avf.trial_cycles"] += t.cycles;
        c["core.avf.recoveries"] += t.recoveries;
        if (t.outcome == FaultOutcome::Hang)
            c["core.avf.hang_cycles"] += t.cycles;
    }
}

/** Trials that classify Sdc or Hang, in trial order. */
std::vector<uint32_t>
harmfulTrials(const AvfReport &rep)
{
    std::vector<uint32_t> out;
    for (uint32_t t = 0; t < rep.perTrial.size(); t++) {
        FaultOutcome o = rep.perTrial[t].outcome;
        if (o == FaultOutcome::Sdc || o == FaultOutcome::Hang)
            out.push_back(t);
    }
    return out;
}

/**
 * Count the checkpoint stream a campaign wrote (one header frame,
 * then one frame per shard), check it holds every shard, and delete
 * it.
 */
void
consumeCheckpoint(Counts &c, const fs::path &path, uint32_t trials,
                  const std::string &what)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    uint64_t frames = 0, bytes = 0;
    while (std::getline(in, line)) {
        frames++;
        bytes += line.size() + 1;
    }
    in.close();
    fs::remove(path);
    uint32_t per = campaignShardTrials(0);
    uint64_t want = (trials + per - 1) / per;
    expect(frames == want + 1, "%s: checkpoint holds %" PRIu64
           " frames, want %" PRIu64, what.c_str(), frames, want + 1);
    c["core.campaign.shards"] += frames ? frames - 1 : 0;
    c["core.campaign.checkpoint_bytes"] += bytes;
}

// ---------------------------------------------------------------------
// Untraced passes (the timed operations)

struct PassResult
{
    uint64_t ops = 0;
    Counts counts;
};

/** The grid as one runCampaign batch; each cell is an operation. */
PassResult
gridPass(const std::vector<Cell> &cells)
{
    PassResult pr;
    std::vector<RunResult> results = runCampaign(goldenRequests(cells));
    for (size_t i = 0; i < cells.size(); i++) {
        checkGolden(results[i], cellName(cells[i]));
        addSimCounts(pr.counts, results[i].pipe);
        addCompileCounts(pr.counts, results[i].compileStats,
                         results[i].codeBytes);
    }
    pr.ops = cells.size();
    return pr;
}

/** One checkpointed campaign per cell; each trial is an operation. */
PassResult
avfPass(const Workload &w, const std::vector<Cell> &cells,
        const fs::path &tmp)
{
    PassResult pr;
    for (size_t i = 0; i < cells.size(); i++) {
        AvfCampaignConfig cfg = avfConfig(cells[i], w.trials, w.missRate);
        fs::path ckpt = tmp / ("cell" + std::to_string(i) + ".ckpt");
        cfg.checkpointFile = ckpt.string();
        AvfReport rep = runAvfCampaign(cfg);
        checkReport(rep, w.trials, cellName(cells[i]));
        consumeCheckpoint(pr.counts, ckpt, w.trials, cellName(cells[i]));
        addOutcomeCounts(pr.counts, rep);
        pr.ops += w.trials;
    }
    return pr;
}

/** One root-cause analysis per cell; each screened trial is an operation. */
PassResult
rootCausePass(const Workload &w, const std::vector<Cell> &cells)
{
    PassResult pr;
    for (const Cell &c : cells) {
        RootCauseReport rc =
            runRootCauseAnalysis(avfConfig(c, w.trials, w.missRate));
        checkReport(rc.screen, w.trials, cellName(c));
        // Exactly the Sdc and Hang trials of the screen are bisected.
        std::vector<uint32_t> harmful = harmfulTrials(rc.screen);
        bool same = rc.analyzed == harmful.size() &&
                    rc.attributions.size() == harmful.size();
        for (size_t i = 0; same && i < harmful.size(); i++)
            same = rc.attributions[i].trial == harmful[i];
        expect(same, "%s: %u trials bisected, %zu Sdc/Hang screened",
               cellName(c).c_str(), rc.analyzed, harmful.size());
        addOutcomeCounts(pr.counts, rc.screen);
        pr.counts["core.rootcause.bisections"] += rc.analyzed;
        pr.counts["core.rootcause.probes"] += rc.totalProbes;
        pr.ops += w.trials;
    }
    return pr;
}

PassResult
runPass(const Workload &w, const std::vector<Cell> &cells,
        const fs::path &tmp)
{
    if (w.name == "avf")
        return avfPass(w, cells, tmp);
    if (w.name == "rootcause")
        return rootCausePass(w, cells);
    return gridPass(cells);
}

// ---------------------------------------------------------------------
// Tracing

/**
 * One recorded span. A span's layer is its name up to the last dot
 * ("passes.compile" -> "passes", "core.avf.trial" -> "core.avf");
 * "bench.*" spans are the benchmark's own per-operation roots and
 * belong to no layer.
 */
struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the log's origin
    double end = 0.0;
    int parent = -1;
    uint64_t op = 0;    ///< cell or trial index the span works on
    unsigned tid = 0;   ///< campaign worker (0 = the main thread)
};

std::string
spanLayer(const std::string &name)
{
    size_t dot = name.rfind('.');
    std::string layer = dot == std::string::npos ? name
                                                 : name.substr(0, dot);
    return layer == "bench" ? std::string() : layer;
}

class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Seconds since the origin; safe from any thread. */
    double now() const { return secondsSince(origin_); }

    int add(const std::string &name, double start, double end,
            int parent, uint64_t op, unsigned tid = 0)
    {
        spans_.push_back({name, start, end, parent, op, tid});
        return static_cast<int>(spans_.size()) - 1;
    }

    int open(const char *name, int parent, uint64_t op)
    {
        return add(name, now(), 0.0, parent, op);
    }

    void close(int id) { spans_[id].end = now(); }

    /** Time fn() as a span named @p name and return its result. */
    template <class Fn>
    auto timed(const char *name, int parent, uint64_t op, Fn &&fn)
    {
        int id = open(name, parent, op);
        auto result = fn();
        close(id);
        return result;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const Span &last() const { return spans_.back(); }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

double
spanSeconds(const Span &s)
{
    return s.end - s.start;
}

/** Per-layer metrics of one traced cycle, keyed by metric name. */
using Metrics = std::map<std::string, double>;

void
addCounts(Metrics &m, const Counts &c)
{
    for (const auto &[name, v] : c)
        m[name] += double(v);
}

/** The untraced cells through runCampaign with a per-cell observer. */
void
tracedBatch(SpanLog &log, const std::vector<Cell> &cells, Metrics &m)
{
    size_t n = cells.size();
    std::vector<double> start(n), end(n);
    std::vector<unsigned> worker(n);
    CampaignObserver obs;
    obs.onStart = [&](unsigned w, size_t i) {
        worker[i] = w;
        start[i] = log.now();
    };
    obs.onFinish = [&](unsigned, size_t i, const RunResult &) {
        end[i] = log.now();
    };
    int batch = log.open("core.parallel.batch", -1, 0);
    std::vector<RunResult> results =
        runCampaign(goldenRequests(cells), obs);
    log.close(batch);
    const Span b = log.spans()[batch];

    double busy = 0.0, lastStart = b.start;
    for (size_t i = 0; i < n; i++) {
        log.add("core.parallel.cell", start[i], end[i], batch, i,
                worker[i]);
        busy += end[i] - start[i];
        lastStart = std::max(lastStart, start[i]);
        checkGolden(results[i], cellName(cells[i]));
    }
    double jobs = double(std::min<size_t>(campaignJobs(), n));
    m["core.parallel.jobs"] += jobs;
    m["core.parallel.busy_share"] += busy / (jobs * spanSeconds(b));
    m["core.parallel.tail_ms"] += (b.end - lastStart) * 1e3;
}

/**
 * Re-run every cell through the per-layer entry points, one span per
 * call: the decomposition runWorkload performs internally. Each cell
 * must reproduce @p reference (the same cell run whole).
 */
void
tracedGoldenChain(SpanLog &log, const std::vector<Cell> &cells,
                  const std::vector<RunResult> &reference, Metrics &m)
{
    Counts c;
    for (size_t i = 0; i < cells.size(); i++) {
        const Cell &cell = cells[i];
        int root = log.open("bench.cell", -1, i);
        std::unique_ptr<Module> mod = log.timed(
            "workloads.build", root, i,
            [&] { return buildWorkload(cell.spec, cell.icount); });
        CompiledProgram prog = log.timed("passes.compile", root, i, [&] {
            return compileWorkload(*mod, cell.cfg);
        });
        for (const auto &[name, e] : prog.profile.entries()) {
            std::string pass = name.rfind("compile.", 0) == 0
                ? name.substr(8) : name;
            m["passes." + pass + "_ms"] += e.seconds * 1e3;
        }
        uint64_t codeBytes =
            prog.mf->codeBytes() + prog.mf->recoveryBytes();
        addCompileCounts(c, prog.stats, codeBytes);
        log.timed("machine.verify", root, i, [&] {
            verifyOrDie(*prog.mf);
            return 0;
        });
        InterpResult interp = log.timed("machine.interpret", root, i, [&] {
            return interpretMachine(*mod, *prog.mf);
        });
        m["machine.interpret_insts"] += double(interp.stats.insts);
        expect(interp.reason == StopReason::Halted,
               "%s: functional run did not halt", cellName(cell).c_str());
        uint64_t goldenHash = log.timed("ir.data_hash", root, i, [&] {
            return interp.memory.dataHash(*mod);
        });
        PipelineResult pr = log.timed("sim.run", root, i, [&] {
            InOrderPipeline pipe(*mod, *prog.mf, cell.cfg.toPipelineConfig());
            return pipe.run();
        });
        uint64_t dataHash = log.timed("ir.data_hash", root, i, [&] {
            return pr.memory.dataHash(*mod);
        });
        log.close(root);

        expect(pr.halted && dataHash == goldenHash,
               "%s: golden-model chain broken in the layered run",
               cellName(cell).c_str());
        const RunResult &ref = reference[i];
        expect(ref.dataHash == dataHash && ref.archHash == pr.archHash &&
                   ref.pipe.cycles == pr.stats.cycles &&
                   ref.codeBytes == codeBytes,
               "%s: layered run differs from runWorkload",
               cellName(cell).c_str());
        addSimCounts(c, pr.stats);
    }
    addCounts(m, c);
}

/**
 * Fault chain per cell: the checkpointed campaign, the golden run of
 * a TrialReplayer, a traced replay and classification of every trial
 * (each must reproduce the campaign's outcome), then bisection of up
 * to w.maxBisect harmful trials with one golden prefix probe each.
 */
void
tracedFaultChain(SpanLog &log, const Workload &w,
                 const std::vector<Cell> &cells, const fs::path &tmp,
                 Metrics &m)
{
    Counts c;
    double prepare = 0.0, trialTotal = 0.0;
    std::vector<double> trialMs, probeMs;
    for (size_t k = 0; k < cells.size(); k++) {
        const std::string what = cellName(cells[k]);
        int root = log.open("bench.fault_cell", -1, k);
        AvfCampaignConfig cfg = avfConfig(cells[k], w.trials, w.missRate);
        fs::path ckpt = tmp / ("trace" + std::to_string(k) + ".ckpt");
        cfg.checkpointFile = ckpt.string();
        AvfReport rep = log.timed("core.avf.campaign", root, k,
                                  [&] { return runAvfCampaign(cfg); });
        cfg.checkpointFile.clear();
        consumeCheckpoint(c, ckpt, w.trials, what);
        checkReport(rep, w.trials, what);
        addOutcomeCounts(c, rep);

        auto replayer = log.timed("core.avf.golden", root, k, [&] {
            return std::make_unique<TrialReplayer>(cfg);
        });
        checkGolden(replayer->golden(), what);
        for (uint32_t t = 0; t < w.trials && t < rep.perTrial.size(); t++) {
            ReplayedTrial rt = log.timed("core.avf.trial", root, t, [&] {
                return replayer->replay(t);
            });
            double sec = spanSeconds(log.last());
            trialMs.push_back(sec * 1e3);
            trialTotal += sec;
            const auto &prof = rt.run.profile.entries();
            for (const char *phase : {"host.build_workload",
                                      "host.compile", "host.interpret"}) {
                auto it = prof.find(phase);
                if (it != prof.end())
                    prepare += it->second.seconds;
            }
            expect(rt.outcome == rep.perTrial[t].outcome &&
                       rt.run.pipe.cycles == rep.perTrial[t].cycles,
                   "%s trial %u: replay gives %s, campaign gave %s",
                   what.c_str(), t, faultOutcomeName(rt.outcome),
                   faultOutcomeName(rep.perTrial[t].outcome));
            FaultOutcome o = log.timed("core.avf.classify", root, t, [&] {
                return classifyOutcome(replayer->golden(), rt.run,
                                       rt.fault.spurious);
            });
            expect(o == rt.outcome, "%s trial %u: classification differs",
                   what.c_str(), t);
        }

        GoldenPrefixCache cache;
        std::vector<uint32_t> harmful = harmfulTrials(rep);
        if (harmful.size() > w.maxBisect)
            harmful.resize(w.maxBisect);
        for (uint32_t t : harmful) {
            DivergencePoint dp = log.timed("core.rootcause.bisect", root, t,
                [&] { return bisectDivergence(*replayer, t, cache); });
            c["core.rootcause.bisections"] += 1;
            c["core.rootcause.probes"] += dp.probes;
            CommitCapture cap;
            cap.limit = std::max<uint64_t>(1, dp.index);
            log.timed("core.replay.probe", root, t, [&] {
                return replayer->goldenProbe(&cap);
            });
            probeMs.push_back(spanSeconds(log.last()) * 1e3);
            expect(cap.committed <= cap.limit,
                   "%s trial %u: probe overran its commit limit",
                   what.c_str(), t);
        }
        log.close(root);
    }
    addCounts(m, c);
    m["core.avf.trial_ms_p50"] = median(trialMs);
    m["core.rootcause.probe_ms_p50"] = median(probeMs);
    m["core.avf.prepare_share"] = trialTotal > 0 ? prepare / trialTotal : 0;
    m["core.avf.hang_cycle_share"] = c["core.avf.trial_cycles"]
        ? double(c["core.avf.hang_cycles"]) /
              double(c["core.avf.trial_cycles"])
        : 0.0;
}

/** Span totals, self time per layer, unattributed share. */
void
spanMetrics(const SpanLog &log, double wall, Metrics &m)
{
    const std::vector<Span> &spans = log.spans();
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); i++)
        if (spans[i].parent >= 0)
            children[spans[i].parent].push_back(int(i));

    std::map<std::string, double> total, count;
    std::map<std::string, double> self;
    double attributed = 0.0;
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        total[s.name] += spanSeconds(s);
        count[s.name] += 1;
        std::string layer = spanLayer(s.name);
        if (layer.empty())
            continue;
        // Self time: duration minus the union of child intervals.
        std::vector<std::pair<double, double>> iv;
        for (int ch : children[i])
            iv.push_back({spans[ch].start, spans[ch].end});
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, hi = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, hi);
            if (b > a) {
                covered += b - a;
                hi = b;
            }
        }
        self[layer] += spanSeconds(s) - covered;
        bool topLevel = s.parent < 0 ||
                        spanLayer(spans[s.parent].name).empty();
        if (topLevel && s.tid == 0)
            attributed += spanSeconds(s);
    }
    for (const auto &[layer, sec] : self)
        m[layer + ".self_ms"] = sec * 1e3;

    auto ms = [&](const char *name) { return total[name] * 1e3; };
    m["workloads.build_ms"] = ms("workloads.build");
    m["workloads.builds"] = count["workloads.build"];
    m["passes.compile_ms"] = ms("passes.compile");
    m["passes.compiles"] = count["passes.compile"];
    m["machine.verify_ms"] = ms("machine.verify");
    m["machine.interpret_ms"] = ms("machine.interpret");
    m["machine.interpret_mips"] = total["machine.interpret"] > 0
        ? m["machine.interpret_insts"] / total["machine.interpret"] / 1e6
        : 0.0;
    m.erase("machine.interpret_insts");
    m["ir.data_hash_ms"] = ms("ir.data_hash");
    m["ir.data_hash_calls"] = count["ir.data_hash"];
    m["sim.run_ms"] = ms("sim.run");
    m["sim.runs"] = count["sim.run"];
    double simSec = total["sim.run"];
    m["sim.mips"] = simSec > 0 ? m["sim.insts"] / simSec / 1e6 : 0.0;
    m["sim.host_ns_per_cycle"] =
        m["sim.cycles"] > 0 ? simSec * 1e9 / m["sim.cycles"] : 0.0;
    m["sim.ipc"] = m["sim.cycles"] > 0 ? m["sim.insts"] / m["sim.cycles"]
                                       : 0.0;
    m["core.avf.golden_ms"] = ms("core.avf.golden");
    m["core.avf.classify_ms"] = ms("core.avf.classify");
    m["core.rootcause.bisect_ms"] = ms("core.rootcause.bisect");
    m["core.rootcause.screen_ms"] = ms("core.avf.campaign");
    m["trace.spans"] = double(spans.size());
    m["trace.wall_ms"] = wall * 1e3;
    m["trace.unattributed_share"] = wall > 0 ? (wall - attributed) / wall
                                             : 0.0;
}

/**
 * One traced cycle over @p cells. The untraced reference runs the
 * same golden cells whole (runWorkload, serially, like the layered
 * re-run) before the span log starts; the tracing overhead is the
 * layered re-run's wall time minus that reference's. Only the fault
 * workloads run the fault chain: sweep and sim-long inject no faults,
 * so their fault-layer metrics read 0.
 */
Metrics
tracedCycle(const Workload &w, const std::vector<Cell> &cells,
            const fs::path &tmp, std::vector<Span> &spans_out)
{
    Metrics m;
    std::vector<RunResult> reference;
    Clock::time_point r0 = Clock::now();
    for (const Cell &c : cells)
        reference.push_back(runWorkload(c.spec, c.cfg, c.icount));
    double untraced = secondsSince(r0);

    SpanLog log;
    tracedBatch(log, cells, m);
    double t0 = log.now();
    tracedGoldenChain(log, cells, reference, m);
    double traced = log.now() - t0;
    if (w.faulty)
        tracedFaultChain(log, w, cells, tmp, m);

    spanMetrics(log, log.now(), m);
    m["trace.overhead_ms"] = (traced - untraced) * 1e3;
    m["trace.overhead_share"] = (traced - untraced) / untraced;
    spans_out = log.spans();
    return m;
}

// ---------------------------------------------------------------------
// Output

/** Per-layer metric table: name, unit, deterministic count or not. */
struct MetricDef
{
    const char *name;
    const char *unit;
    bool deterministic;
};

const std::vector<MetricDef> &
layerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.build_ms", "ms", false},
        {"workloads.builds", "count", true},
        {"workloads.self_ms", "ms", false},
        {"passes.compile_ms", "ms", false},
        {"passes.compiles", "count", true},
        {"passes.strength_reduction_ms", "ms", false},
        {"passes.livm_ms", "ms", false},
        {"passes.register_allocation_ms", "ms", false},
        {"passes.scheduling_generic_ms", "ms", false},
        {"passes.region_formation_ms", "ms", false},
        {"passes.checkpointing_ms", "ms", false},
        {"passes.checkpoint_pruning_ms", "ms", false},
        {"passes.scheduling_ckpt_ms", "ms", false},
        {"passes.lowering_ms", "ms", false},
        {"passes.ckpt_inserted", "count", true},
        {"passes.ckpt_pruned", "count", true},
        {"passes.regions", "count", true},
        {"passes.spill_stores", "count", true},
        {"passes.code_bytes", "bytes", true},
        {"passes.self_ms", "ms", false},
        {"machine.verify_ms", "ms", false},
        {"machine.interpret_ms", "ms", false},
        {"machine.interpret_mips", "Minst/s", false},
        {"machine.self_ms", "ms", false},
        {"ir.data_hash_ms", "ms", false},
        {"ir.data_hash_calls", "count", true},
        {"ir.self_ms", "ms", false},
        {"sim.run_ms", "ms", false},
        {"sim.mips", "Minst/s", false},
        {"sim.host_ns_per_cycle", "ns", false},
        {"sim.runs", "count", true},
        {"sim.insts", "count", true},
        {"sim.cycles", "cycles", true},
        {"sim.ipc", "inst/cycle", true},
        {"sim.sb_full_stall_cycles", "cycles", true},
        {"sim.data_hazard_stall_cycles", "cycles", true},
        {"sim.rbb_full_stall_cycles", "cycles", true},
        {"sim.self_ms", "ms", false},
        {"core.avf.trials", "count", true},
        {"core.avf.golden_ms", "ms", false},
        {"core.avf.trial_ms_p50", "ms", false},
        {"core.avf.classify_ms", "ms", false},
        {"core.avf.prepare_share", "ratio", false},
        {"core.avf.hang_cycle_share", "ratio", true},
        {"core.avf.masked", "count", true},
        {"core.avf.recovered", "count", true},
        {"core.avf.sdc", "count", true},
        {"core.avf.hang", "count", true},
        {"core.avf.recoveries", "count", true},
        {"core.avf.trial_cycles", "cycles", true},
        {"core.avf.self_ms", "ms", false},
        {"core.parallel.jobs", "count", true},
        {"core.parallel.busy_share", "ratio", false},
        {"core.parallel.tail_ms", "ms", false},
        {"core.parallel.self_ms", "ms", false},
        {"core.rootcause.bisections", "count", true},
        {"core.rootcause.probes", "count", true},
        {"core.rootcause.bisect_ms", "ms", false},
        {"core.rootcause.probe_ms_p50", "ms", false},
        {"core.rootcause.screen_ms", "ms", false},
        {"core.rootcause.self_ms", "ms", false},
        {"core.replay.self_ms", "ms", false},
        {"core.campaign.shards", "count", true},
        {"core.campaign.checkpoint_bytes", "bytes", true},
        {"trace.spans", "count", true},
        {"trace.wall_ms", "ms", false},
        {"trace.unattributed_share", "ratio", false},
        {"trace.overhead_ms", "ms", false},
        {"trace.overhead_share", "ratio", false},
    };
    return defs;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
countsJson(const Counts &c)
{
    std::string s = "{";
    for (const auto &[name, v] : c) {
        if (s.size() > 1)
            s += ",";
        s += "\"" + name + "\":" + std::to_string(v);
    }
    return s + "}";
}

void
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path);
    for (const Span &s : spans)
        out << "{\"name\":\"" << s.name << "\",\"start_us\":"
            << uint64_t(s.start * 1e6) << ",\"end_us\":"
            << uint64_t(s.end * 1e6) << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"tid\":" << s.tid << "}\n";
    if (!out)
        expect(false, "cannot write spans to %s", path.c_str());
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string tmp;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a.seconds > 0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--tmp") {
            a.tmp = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && !a.tmp.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    if (!parseArgs(argc, argv, args) || !lookupWorkload(args.workload, w)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "avf|sweep|sim-long|rootcause --seed N --seconds S "
                     "--trace 0|1 --tmp DIR [--spans FILE] "
                     "[--setup-only]\n");
        return 2;
    }

    // Set-up: pin the worker count, start the campaign service's
    // workers and plan the first pass.
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    setenv("TURNPIKE_JOBS", std::to_string(jobs).c_str(), 1);
    fs::path tmp = args.tmp;
    fs::create_directories(tmp);
    CampaignService::instance().run(jobs, [](size_t) {});
    std::vector<Cell> cells = planCells(w, args.seed, 0);
    std::printf("ready %lld\n",
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count()));
    std::fflush(stdout);
    if (args.setupOnly)
        return 0;

    std::string out = "{\"workload\":\"" + w.name + "\",\"jobs\":" +
                      std::to_string(jobs);
    Clock::time_point start = Clock::now();
    uint64_t attempted = 0;
    if (!args.trace) {
        // Whole passes until the time is up; the cold first pass
        // counts, as it does for a user's campaign.
        Counts signature;
        uint64_t passes = 0;
        double c0 = cpuSeconds();
        do {
            std::vector<Cell> pc = planCells(w, args.seed, passes);
            PassResult pr = runPass(w, pc, tmp);
            attempted += pr.ops;
            if (passes++ == 0)
                signature = pr.counts;
        } while (secondsSince(start) < args.seconds);
        double wall = secondsSince(start);
        double cpu = cpuSeconds() - c0;
        out += ",\"passes\":" + std::to_string(passes) +
               ",\"ops_per_s\":" + jsonNumber(double(attempted) / wall) +
               ",\"cpu_ms_per_op\":" +
               jsonNumber(cpu * 1e3 / double(attempted)) +
               ",\"signature\":" + countsJson(signature);
    } else {
        std::vector<Metrics> cycles;
        std::vector<Span> spans;
        do {
            cycles.push_back(tracedCycle(w, cells, tmp, spans));
            attempted += cells.size() * (w.faulty ? 1u + w.trials : 1u);
        } while (secondsSince(start) < args.seconds);
        if (!args.spans.empty())
            writeSpans(spans, args.spans);

        // Times are the median over cycles; counts must repeat
        // exactly, since every cycle runs the same inputs.
        std::string metrics, signature;
        for (const MetricDef &d : layerMetrics()) {
            std::vector<double> v;
            for (const Metrics &m : cycles) {
                auto it = m.find(d.name);
                v.push_back(it == m.end() ? 0.0 : it->second);
            }
            if (d.deterministic)
                expect(std::all_of(v.begin(), v.end(),
                                   [&](double x) { return x == v[0]; }),
                       "%s differs between traced cycles", d.name);
            double value = d.deterministic ? v[0] : median(v);
            metrics += std::string(metrics.empty() ? "" : ",") + "\"" +
                       d.name + "\":{\"value\":" + jsonNumber(value) +
                       ",\"unit\":\"" + d.unit + "\"}";
            if (d.deterministic)
                signature += std::string(signature.empty() ? "" : ",") +
                             "\"" + d.name + "\":" + jsonNumber(value);
        }
        out += ",\"passes\":" + std::to_string(cycles.size()) +
               ",\"metrics\":{" + metrics + "},\"signature\":{" +
               signature + "}";
    }
    out += ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(g_failed) +
           ",\"peak_rss_mb\":" + jsonNumber(peakRssMb()) + "}";
    std::printf("%s\n", out.c_str());
    return g_failed ? 1 : 0;
}
