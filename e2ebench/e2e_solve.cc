/**
 * @file
 * End-to-end solve benchmark: catalog matrices go in through
 * BatchSolver::solveAll and verified AcamarRunReports come out.
 *
 * The load model is a closed loop with one client: a pass is one
 * solveAll() over the workload's whole job list, and the next pass
 * starts only when its reports are back. The seed draws the
 * right-hand sides (x_true ~ U[0.5, 1.5), b = A x_true); the
 * matrices come from the fixed catalog recipes.
 *
 *   e2e_solve --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-out <file>] [--small] [--corrupt-job <i>]
 *
 * --trace 0 measures the end-to-end metrics with all observability
 * off. --trace 1 is a separate run that times the public calls into
 * accel, solvers, sparse, exec and obs from outside the library,
 * records one span per call, and derives the per-layer metrics from
 * those spans. The last stdout line is the result object; the line
 * before it is the run context. A human summary goes to stderr.
 *
 * --small shrinks every matrix for the self-test; --corrupt-job
 * perturbs one job's returned solution so the self-test can see the
 * oracle count it as failed.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "exec/batch_solver.hh"
#include "exec/parallel_context.hh"
#include "obs/kernel_work.hh"
#include "obs/metrics.hh"
#include "obs/perf_report.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "obs/work_ledger.hh"
#include "solvers/block_solver.hh"
#include "sparse/catalog.hh"
#include "sparse/dense_block.hh"
#include "sparse/generators.hh"
#include "sparse/spmm.hh"
#include "sparse/spmv.hh"
#include "sparse/vector_ops.hh"

using namespace acamar;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Process user + system CPU seconds so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ---------------------------------------------------------------- //
// Workloads
// ---------------------------------------------------------------- //

/** The three BatchSolver knobs a workload fixes. */
struct Knobs {
    int jobs = 1;
    int threads = 1; //!< AcamarConfig::hostThreads
    int width = 1;   //!< BatchOptions::blockWidth

    bool operator==(const Knobs &) const = default;

    bool
    operator<(const Knobs &o) const
    {
        return std::tie(jobs, threads, width) <
               std::tie(o.jobs, o.threads, o.width);
    }
};

struct Recipe {
    std::string id; //!< catalog dataset id
    int32_t rows;
    int rhs; //!< right-hand sides submitted for this matrix
};

struct Workload {
    std::string name;
    std::vector<Recipe> recipes;
    Knobs knobs;
};

/**
 * The workloads; why each exists is in BENCHMARK.json and README.md.
 * --small divides the row counts by 8 for the self-test.
 */
std::optional<Workload>
makeWorkload(const std::string &name, bool small)
{
    const int32_t shrink = small ? 8 : 1;
    if (name == "chunk4k") {
        // Every Table II recipe but If and Ns. BiCG-STAB's fp32
        // recurrence residual drifts from the true one on those two
        // (ROADMAP 4(d)): at 4096 rows about 15 of 40 seeded
        // right-hand sides each fail the fp64 oracle, and no job of
        // a benchmark workload may fail.
        Workload w{name, {}, {4, 1, 1}};
        for (const DatasetSpec &s : datasetCatalog()) {
            if (s.id != "If" && s.id != "Ns")
                w.recipes.push_back({s.id, 4096 / shrink, 4});
        }
        return w;
    }
    if (name == "multirhs8") {
        // 4096 rows keeps each matrix (0.9-2.0 MB of CSR) near the
        // core's own L2. At 32768 rows (7-16 MB each) the matrices live
        // in the LLC the host shares with other tenants, and the pass
        // rate of ten seeded runs spread too far to gate on. 32
        // right-hand sides per matrix make four groups of 8 each, so
        // the four workers share even Bc's long groups, and the pass
        // rate averages over four cores instead of following one.
        const int32_t rows = 4096 / shrink;
        return Workload{name,
                        {{"Bc", rows, 32},
                         {"Si", rows, 32},
                         {"Qa", rows, 32},
                         {"Tf", rows, 32}},
                        {4, 1, 8}};
    }
    return std::nullopt;
}

// ---------------------------------------------------------------- //
// Inputs
// ---------------------------------------------------------------- //

struct Job {
    size_t matrix; //!< index into Inputs::matrices
    std::vector<float> b;
};

struct Inputs {
    std::vector<std::string> ids; //!< recipe id per matrix
    std::vector<CsrMatrix<float>> matrices;
    std::vector<Job> jobs;
};

/** Wall seconds of each setup stage (summed over matrices). */
struct SetupTimes {
    double generate = 0.0;
    double cast = 0.0;
    double rhs = 0.0;
    double warmup = 0.0;

    double total() const { return generate + cast + rhs + warmup; }
};

Inputs
makeInputs(const Workload &w, uint64_t seed, SetupTimes &times)
{
    Inputs in;
    in.matrices.reserve(w.recipes.size());
    uint64_t stream = seed;
    for (const Recipe &r : w.recipes) {
        auto t0 = Clock::now();
        const CsrMatrix<double> a =
            generateDataset(*findDataset(r.id), r.rows);
        times.generate += secondsSince(t0);

        t0 = Clock::now();
        in.matrices.push_back(a.cast<float>());
        in.ids.push_back(r.id);
        times.cast += secondsSince(t0);

        t0 = Clock::now();
        const CsrMatrix<float> &af = in.matrices.back();
        for (int k = 0; k < r.rhs; ++k) {
            Rng rng(splitmix64(stream));
            std::vector<float> x(static_cast<size_t>(af.numCols()));
            for (float &v : x)
                v = static_cast<float>(rng.uniform(0.5, 1.5));
            in.jobs.push_back(
                {in.matrices.size() - 1, rhsForSolution(af, x)});
        }
        times.rhs += secondsSince(t0);
    }
    return in;
}

AcamarConfig
configFor(const Knobs &k)
{
    AcamarConfig cfg;
    cfg.hostThreads = k.threads;
    return cfg;
}

BatchSolver
makeBatch(const Inputs &in, const Knobs &k)
{
    BatchOptions opts;
    opts.jobs = k.jobs;
    opts.blockWidth = k.width;
    BatchSolver batch(opts);
    const AcamarConfig cfg = configFor(k);
    for (const Job &j : in.jobs)
        batch.add(in.matrices[j.matrix], j.b, cfg);
    return batch;
}

/** CSR bytes as stored: fp32 values, int32 columns, int64 offsets. */
double
csrMb(const CsrMatrix<float> &a)
{
    return static_cast<double>(a.nnz() * 8 + (a.numRows() + 1) * 8) /
           1e6;
}

// ---------------------------------------------------------------- //
// Correctness oracle
// ---------------------------------------------------------------- //

/** FNV-1a over raw bytes. */
struct Fnv {
    uint64_t h = 14695981039346656037ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }

    template <typename T>
    void
    pod(const T &v)
    {
        bytes(&v, sizeof v);
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        pod(v.size());
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    timing(const TimingBreakdown &t)
    {
        pod(t.initCycles);
        pod(t.spmvCycles);
        pod(t.denseCycles);
        pod(t.reconfigCycles);
        pod(t.iterations);
        pod(t.spmvUsefulMacs);
        pod(t.spmvOfferedMacs);
        pod(t.reconfigEvents);
    }
};

/**
 * Digest of everything a report says about the solve: the structure
 * pick, the plan, every attempt's status, residual history, solution
 * and modelled timing. Correlation ids are left out, so a direct
 * Acamar::run and a batched run of the same job digest alike.
 */
uint64_t
reportDigest(const AcamarRunReport &r)
{
    Fnv f;
    f.pod(r.structure.solver);
    f.pod(r.structure.analysisCycles);
    f.vec(r.plan.factors);
    f.pod(r.plan.reconfigEvents);
    f.pod(r.converged);
    f.pod(r.finalSolver);
    f.pod(r.timedOut);
    f.pod(r.analyzerCycles);
    f.pod(r.paperRu);
    f.pod(r.occupancyRu);
    f.pod(r.passStats.cycles);
    f.timing(r.totalTiming);
    for (const TimedSolve &a : r.attempts) {
        f.pod(a.kind);
        f.pod(a.result.status);
        f.pod(a.result.iterations);
        f.pod(a.result.relativeResidual);
        f.vec(a.result.residualHistory);
        f.vec(a.result.solution);
        f.timing(a.timing);
    }
    return f.h;
}

/**
 * ||b - A x|| / ||b|| recomputed in fp64 over the fp32 system, with
 * its own loop rather than the library's kernels.
 */
double
trueResidual(const CsrMatrix<float> &a, const std::vector<float> &b,
             const std::vector<float> &x)
{
    const auto &rp = a.rowPtr();
    const auto &ci = a.colIdx();
    const auto &v = a.values();
    double rr = 0.0;
    double bb = 0.0;
    for (int32_t i = 0; i < a.numRows(); ++i) {
        double ax = 0.0;
        for (int64_t k = rp[i]; k < rp[i + 1]; ++k)
            ax += static_cast<double>(v[k]) *
                  static_cast<double>(x[ci[k]]);
        const double r = static_cast<double>(b[i]) - ax;
        rr += r * r;
        bb += static_cast<double>(b[i]) * static_cast<double>(b[i]);
    }
    return std::sqrt(rr) / std::sqrt(bb);
}

/** The oracle accepts a true residual up to this multiple of tol. */
constexpr double kResidualSlack = 10.0;

/**
 * Why one job's report fails the oracle, or "" when it passes. The
 * report must show convergence, a finite solution, a true residual
 * within kResidualSlack x tolerance, and the digest of the reference
 * report for the same job.
 */
std::string
oracle(const Inputs &in, size_t j, const AcamarRunReport &rep,
       uint64_t reference)
{
    const Job &job = in.jobs[j];
    if (!rep.converged) {
        return "not converged (" +
               to_string(rep.attempts.back().result.status) + ")";
    }
    const std::vector<float> &x = rep.solution();
    if (!std::all_of(x.begin(), x.end(),
                     [](float v) { return std::isfinite(v); }))
        return "non-finite solution";
    const double limit =
        kResidualSlack * ConvergenceCriteria{}.tolerance;
    const double r = trueResidual(in.matrices[job.matrix], job.b, x);
    if (!(r <= limit)) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "true residual %.3g > %.3g", r,
                      limit);
        return buf;
    }
    if (reportDigest(rep) != reference)
        return "report differs from the reference pass";
    return "";
}

/** Check one pass; print each failed job; return the failure count. */
int
checkPass(const Inputs &in, const std::vector<AcamarRunReport> &reps,
          const std::vector<uint64_t> &reference, const char *pass)
{
    int failed = 0;
    for (size_t j = 0; j < reps.size(); ++j) {
        const std::string why = oracle(in, j, reps[j], reference[j]);
        if (why.empty())
            continue;
        ++failed;
        std::fprintf(stderr, "FAILED %s job %zu (%s): %s\n", pass, j,
                     in.ids[in.jobs[j].matrix].c_str(), why.c_str());
    }
    return failed;
}

std::vector<uint64_t>
digests(const std::vector<AcamarRunReport> &reps)
{
    std::vector<uint64_t> d;
    d.reserve(reps.size());
    for (const AcamarRunReport &r : reps)
        d.push_back(reportDigest(r));
    return d;
}

// ---------------------------------------------------------------- //
// Output
// ---------------------------------------------------------------- //

struct Metric {
    std::string name;
    double value;
    std::string unit;
    int64_t samples; //!< measurements behind the value
};

struct Result {
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
};

/** Run context, printed beside every result. */
struct Context {
    const Workload *w = nullptr;
    const Inputs *in = nullptr;
    uint64_t seed = 0;
    int trace = 0;
    int64_t iterationsPerPass = 0;
};

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
shortNum(double v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

int
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

/** Last-level cache bytes (glibc reads it from the CPU), 0 if unknown. */
long
llcBytes()
{
    for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                     _SC_LEVEL2_CACHE_SIZE}) {
        const long v = sysconf(name);
        if (v > 0)
            return v;
    }
    return 0;
}

void
print(const Context &c, const Result &r)
{
    std::string ctx = "{\"context\": {\"workload\": \"" + c.w->name +
                      "\", \"seed\": " + std::to_string(c.seed) +
                      ", \"trace\": " + std::to_string(c.trace) +
                      ", \"nproc\": " + std::to_string(cpusAvailable()) +
                      ", \"llc_mb\": " +
                      std::to_string(llcBytes() / 1048576) +
                      ", \"jobs\": " + std::to_string(c.w->knobs.jobs) +
                      ", \"host_threads\": " +
                      std::to_string(c.w->knobs.threads) +
                      ", \"block_width\": " +
                      std::to_string(c.w->knobs.width) +
                      ", \"solves_per_pass\": " +
                      std::to_string(c.in->jobs.size()) +
                      ", \"iterations_per_pass\": " +
                      std::to_string(c.iterationsPerPass) +
                      ", \"build_type\": \"" E2E_BUILD_TYPE
                      "\", \"git_sha\": \"" +
                      perfGitSha() + "\", \"matrices\": [";
    for (size_t m = 0; m < c.in->matrices.size(); ++m) {
        const CsrMatrix<float> &a = c.in->matrices[m];
        ctx += std::string(m ? ", " : "") + "{\"id\": \"" + c.in->ids[m] +
               "\", \"rows\": " + std::to_string(a.numRows()) +
               ", \"nnz\": " + std::to_string(a.nnz()) +
               ", \"csr_mb\": " + shortNum(csrMb(a)) + "}";
    }
    ctx += "]}}";

    std::fprintf(stderr, "\n%-30s %16s  %-9s %s\n", "metric", "value",
                 "unit", "samples");
    std::string res =
        std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        std::fprintf(stderr, "%-30s %16.6g  %-9s %lld\n", m.name.c_str(),
                     m.value, m.unit.c_str(),
                     static_cast<long long>(m.samples));
        res += std::string(i ? ", " : "") + "\"" + m.name +
               "\": {\"value\": " + jsonNum(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    res += "}}";
    std::fprintf(stderr, "%-30s %16.6g  %-9s %lld\n", "failed_share",
                 r.attempted ? static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted)
                             : 0.0,
                 "fraction", static_cast<long long>(r.attempted));
    std::printf("%s\n%s\n", ctx.c_str(), res.c_str());
    std::fflush(stdout);
}

int64_t
iterationsOf(const std::vector<AcamarRunReport> &reps)
{
    int64_t it = 0;
    for (const AcamarRunReport &r : reps) {
        for (const TimedSolve &a : r.attempts)
            it += a.result.iterations;
    }
    return it;
}

// ---------------------------------------------------------------- //
// End-to-end run (--trace 0)
// ---------------------------------------------------------------- //

/**
 * An end-to-end run sets up kMinSetups to kMaxSetups times, starting
 * another only while under kSetupBudgetS; setup_s is their median.
 */
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 10.0;

/** Timed passes per run at the least, whatever --seconds says. */
constexpr int kMinPasses = 3;

int
runEndToEnd(const Workload &w, uint64_t seed, double seconds,
            long corrupt_job)
{
    std::optional<Inputs> in;
    std::optional<BatchSolver> batch;
    std::vector<uint64_t> reference;
    std::vector<double> setup_s;
    int64_t iterations = 0;
    Result res;
    const auto setup_start = Clock::now();
    while (setup_s.size() < kMinSetups ||
           (setup_s.size() < kMaxSetups &&
            secondsSince(setup_start) < kSetupBudgetS)) {
        // Drop the previous copy first so repeated setups do not
        // raise the peak RSS.
        batch.reset();
        in.reset();
        const auto t0 = Clock::now();
        SetupTimes times;
        in.emplace(makeInputs(w, seed, times));
        batch.emplace(makeBatch(*in, w.knobs));
        const std::vector<AcamarRunReport> warm = batch->solveAll();
        setup_s.push_back(secondsSince(t0));

        // The warm-up pass is the reference for every timed pass;
        // it must itself pass everything but the digest check.
        reference = digests(warm);
        if (checkPass(*in, warm, reference, "warm-up") != 0)
            res.correct = false;
        iterations = iterationsOf(warm);
    }

    std::vector<double> pass_s;
    std::vector<double> rate;
    double cpu = 0.0;
    int64_t solves = 0;
    const auto start = Clock::now();
    while (rate.size() < kMinPasses || secondsSince(start) < seconds) {
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        std::vector<AcamarRunReport> reps = batch->solveAll();
        const double wall = secondsSince(t0);
        cpu += cpuSeconds() - cpu0;
        pass_s.push_back(wall);
        solves += static_cast<int64_t>(reps.size());

        if (corrupt_job >= 0 &&
            static_cast<size_t>(corrupt_job) < reps.size())
            reps[static_cast<size_t>(corrupt_job)]
                .attempts.back()
                .result.solution[0] += 1.0f;
        const int failed = checkPass(*in, reps, reference, "timed");
        res.failed += failed;
        rate.push_back(static_cast<double>(static_cast<int64_t>(
                           reps.size()) - failed) /
                       wall);
    }
    res.attempted = solves;
    res.correct = res.correct && res.failed == 0;
    std::fprintf(stderr, "pass wall s:");
    for (double p : pass_s)
        std::fprintf(stderr, " %.3f", p);
    std::fprintf(stderr, "\n");
    const auto passes = static_cast<int64_t>(rate.size());
    res.metrics = {
        {"solves_per_s", median(rate), "1/s", passes},
        {"cpu_ms_per_solve", 1e3 * cpu / static_cast<double>(solves),
         "ms", passes},
        {"setup_s", median(setup_s), "s",
         static_cast<int64_t>(setup_s.size())},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
    };
    print(Context{&w, &*in, seed, 0, iterations}, res);
    return 0;
}

// ---------------------------------------------------------------- //
// Traced run (--trace 1)
// ---------------------------------------------------------------- //

/** One timed call (or batch of identical calls) into the library. */
struct Span {
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int parent = -1;   //!< index of the enclosing span, -1 at the root
    int job = -1;      //!< job (matrix for sparse.*) index, or -1
    int64_t count = 1; //!< calls the span covers

    double ns() const { return static_cast<double>(endNs - startNs); }
};

/** In-memory span log; written out once, when the run ends. */
class SpanLog
{
  public:
    int
    open(std::string name, int parent, int job = -1)
    {
        spans_.push_back({std::move(name), nowNs(), 0, parent, job, 1});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id, int64_t count = 1)
    {
        spans_[static_cast<size_t>(id)].endNs = nowNs();
        spans_[static_cast<size_t>(id)].count = count;
    }

    /** Run f() inside a span and return what it returns. */
    template <typename F>
    auto
    call(std::string name, int parent, int job, F &&f)
    {
        const int id = open(std::move(name), parent, job);
        auto out = f();
        close(id);
        return out;
    }

    const Span &at(int id) const { return spans_[static_cast<size_t>(id)]; }

    /** Summed duration of spans named `name` at or under `root`. */
    double
    sumUnder(int root, const std::string &name) const
    {
        double ns = 0.0;
        forEachUnder(root, [&](const Span &s) {
            if (s.name == name)
                ns += s.ns();
        });
        return ns;
    }

    /** Number of spans at or under `root`. */
    int64_t
    countUnder(int root) const
    {
        int64_t n = 0;
        forEachUnder(root, [&](const Span &) { ++n; });
        return n;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"id\": " << i << ", \"name\": \"" << s.name
               << "\", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs
               << ", \"parent\": " << s.parent << ", \"job\": " << s.job
               << ", \"count\": " << s.count << "}\n";
        }
        return static_cast<bool>(os);
    }

  private:
    /**
     * Visit `root` and every span below it. Spans are stored in open
     * order, so a descendant comes after its root and opened before
     * the root closed; parents always precede their children.
     */
    template <typename F>
    void
    forEachUnder(int root, F &&f) const
    {
        const auto r = static_cast<size_t>(root);
        f(spans_[r]);
        for (size_t i = r + 1;
             i < spans_.size() && spans_[i].startNs <= spans_[r].endNs;
             ++i) {
            int p = spans_[i].parent;
            while (p > root)
                p = spans_[static_cast<size_t>(p)].parent;
            if (p == root)
                f(spans_[i]);
        }
    }

    std::vector<Span> spans_;
};

/**
 * STREAM triad (a = b + s c, three fp64 arrays, 24 bytes per
 * element, no write-allocate) over `bytes` of arrays on `threads`
 * threads, each sweeping its own slice. Best of three trials, each
 * about 1 GB of traffic, timed between two barriers.
 */
double
triadGbps(size_t bytes, int threads)
{
    const size_t n = std::max<size_t>(bytes / 24, 4096);
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const auto t = static_cast<size_t>(threads);
    const size_t reps =
        std::max<size_t>(1, static_cast<size_t>(1e9 / (24.0 * n)));
    double best = 0.0;
    double sink = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        std::barrier sync(threads + 1);
        std::vector<double> tail(t, 0.0);
        std::vector<std::thread> pool;
        for (size_t i = 0; i < t; ++i) {
            pool.emplace_back([&, i] {
                const size_t lo = n * i / t;
                const size_t hi = n * (i + 1) / t;
                sync.arrive_and_wait();
                for (size_t r = 0; r < reps; ++r) {
                    const double s = 3.0 + static_cast<double>(r);
                    for (size_t k = lo; k < hi; ++k)
                        a[k] = b[k] + s * c[k];
                    tail[i] += a[hi - 1];
                }
                sync.arrive_and_wait();
            });
        }
        sync.arrive_and_wait();
        const auto t0 = Clock::now();
        sync.arrive_and_wait();
        const double s = secondsSince(t0);
        for (std::thread &th : pool)
            th.join();
        for (double v : tail)
            sink += v;
        best = std::max(best, 24.0 * static_cast<double>(n * reps) /
                                  s / 1e9);
    }
    if (sink == 0.0)
        std::fprintf(stderr, "triad checksum is zero\n");
    return best;
}

/**
 * Per-call nanoseconds of `f`: the median over kBatches spans, each
 * covering enough calls to last about 2 ms (at least one call).
 */
double
nsPerCall(SpanLog &log, const std::string &name, int parent, int job,
          const std::function<void()> &f)
{
    constexpr int kBatches = 5;
    constexpr double kBatchNs = 2e6;
    const uint64_t t0 = nowNs();
    f(); // warm caches and any lazily built partition
    const auto calls = static_cast<int64_t>(std::max(
        1.0, kBatchNs / static_cast<double>(nowNs() - t0)));
    std::vector<double> per_call;
    for (int b = 0; b < kBatches; ++b) {
        const int id = log.open(name, parent, job);
        for (int64_t c = 0; c < calls; ++c)
            f();
        log.close(id, calls);
        per_call.push_back(log.at(id).ns() / static_cast<double>(calls));
    }
    return median(per_call);
}

/** Library kernel timings for one distinct matrix, ns per call. */
struct KernelNs {
    double spmv = 0.0;   //!< at the workload's thread count
    double spmv1 = 0.0;  //!< one thread
    double spmv4 = 0.0;  //!< four threads
    double spmm8 = 0.0;  //!< k = 8, at the workload's thread count
    double dot = 0.0;    //!< mean of dot and norm2
    double axpy = 0.0;   //!< mean of axpy and waxpby
    double bytes = 0.0;  //!< computed SpMV traffic
};

KernelNs
timeKernels(SpanLog &log, int parent, size_t m,
            const CsrMatrix<float> &a, int threads)
{
    const auto n = static_cast<size_t>(a.numRows());
    const int job = static_cast<int>(m);
    std::vector<float> x(n, 1.0f), y(n, 0.0f), w(n, 0.0f);
    ParallelContext four(4);
    std::unique_ptr<ParallelContext> own;
    if (threads > 1)
        own = std::make_unique<ParallelContext>(threads);
    ParallelContext *pc = own.get();

    KernelNs k;
    k.bytes = static_cast<double>(
        csrSpmvWork(a.numRows(), a.nnz(), sizeof(float)).bytes);
    k.spmv = nsPerCall(log, "sparse.spmv", parent, job,
                       [&] { spmv(a, x, y, pc); });
    k.spmv1 = nsPerCall(log, "sparse.spmv_1t", parent, job,
                        [&] { spmv(a, x, y, nullptr); });
    k.spmv4 = nsPerCall(log, "sparse.spmv_4t", parent, job,
                        [&] { spmv(a, x, y, &four); });

    DenseBlock<float> xb(n, 8), yb(n, 8);
    for (size_t j = 0; j < 8; ++j)
        std::fill(xb.col(j), xb.col(j) + n, 1.0f);
    k.spmm8 = nsPerCall(log, "sparse.spmm", parent, job,
                        [&] { spmm(a, xb, yb, 8, pc); });

    volatile double sink = 0.0;
    const double dot_ns =
        nsPerCall(log, "sparse.dot", parent, job,
                  [&] { sink = sink + dot(x, y, pc); });
    const double norm_ns =
        nsPerCall(log, "sparse.norm2", parent, job,
                  [&] { sink = sink + norm2(x, pc); });
    const double axpy_ns =
        nsPerCall(log, "sparse.axpy", parent, job,
                  [&] { axpy(1e-7f, x, y); });
    const double waxpby_ns =
        nsPerCall(log, "sparse.waxpby", parent, job,
                  [&] { waxpby(1.0f, x, 1e-7f, y, w); });
    k.dot = 0.5 * (dot_ns + norm_ns);
    k.axpy = 0.5 * (axpy_ns + waxpby_ns);
    return k;
}

/** Span name of a pass at `k`, e.g. "exec.pass.j4t1w1". */
std::string
passName(const Knobs &k)
{
    return "exec.pass.j" + std::to_string(k.jobs) + "t" +
           std::to_string(k.threads) + "w" + std::to_string(k.width);
}

int
runTraced(const Workload &w, uint64_t seed, double seconds,
          const std::string &spans_out)
{
    SpanLog log;
    const Knobs &wk = w.knobs;
    Result res;

    // Setup, as the end-to-end run does it, once.
    SetupTimes times;
    const int setup = log.open("setup", -1);
    Inputs in = log.call("setup.inputs", setup, -1,
                         [&] { return makeInputs(w, seed, times); });
    const BatchSolver batch = makeBatch(in, wk);
    const int warmup = log.open("setup.warmup", setup);
    const std::vector<AcamarRunReport> warm = batch.solveAll();
    log.close(warmup);
    log.close(setup);
    times.warmup = log.at(warmup).ns() / 1e9;
    const std::vector<uint64_t> warm_digest = digests(warm);

    // exec: the serial reference, the workload pass, one pass per knob
    // flipped, and the jobs=1 pass's jobs as direct Acamar::run calls.
    // They run round robin, up to three rounds within a third of
    // --seconds, so a drift in machine speed hits every setting alike.
    // Every report is checked against the first serial pass.
    const int exec = log.open("exec", -1);
    const auto njobs = static_cast<int64_t>(in.jobs.size());
    const Knobs serial{1, 1, 1};
    const Knobs by_jobs{wk.jobs == 1 ? 4 : 1, wk.threads, wk.width};
    const Knobs by_threads{wk.jobs, wk.threads == 1 ? 4 : 1, wk.width};
    const Knobs by_width{wk.jobs, wk.threads, wk.width == 1 ? 8 : 1};
    const Knobs one_job{1, wk.threads, 1};
    // Ordered by knobs, so the serial reference runs first in a round.
    std::map<Knobs, BatchSolver> batches;
    for (const Knobs &k : {serial, wk, by_jobs, by_threads, by_width,
                           one_job}) {
        if (!batches.count(k))
            batches.emplace(k, makeBatch(in, k));
    }
    const AcamarConfig cfg = configFor(wk);
    std::vector<uint64_t> ref;
    std::vector<AcamarRunReport> p0; // the workload pass's reports
    std::map<Knobs, std::vector<double>> pass_s;
    std::vector<double> overhead; // batch overhead share per round
    int64_t mismatches = 0;
    auto check = [&](const std::vector<AcamarRunReport> &reps,
                     const char *what) {
        if (ref.empty())
            ref = digests(reps);
        res.attempted += njobs;
        res.failed += checkPass(in, reps, ref, what);
        for (size_t j = 0; j < reps.size(); ++j)
            mismatches += reportDigest(reps[j]) != ref[j];
    };
    const auto exec_t0 = Clock::now();
    do {
        for (const auto &[k, batch_k] : batches) {
            const int id = log.open(passName(k), exec);
            std::vector<AcamarRunReport> reps = batch_k.solveAll();
            log.close(id, njobs);
            pass_s[k].push_back(log.at(id).ns() / 1e9);
            check(reps, "traced");
            if (k == wk)
                p0 = std::move(reps);
        }
        double direct_ns = 0.0;
        std::vector<AcamarRunReport> reps;
        for (size_t j = 0; j < in.jobs.size(); ++j) {
            Acamar acc(cfg);
            const int id =
                log.open("exec.direct_run", exec, static_cast<int>(j));
            reps.push_back(
                acc.run(in.matrices[in.jobs[j].matrix], in.jobs[j].b));
            log.close(id);
            direct_ns += log.at(id).ns();
        }
        check(reps, "direct");
        const double batched_ns = pass_s.at(one_job).back() * 1e9;
        overhead.push_back((batched_ns - direct_ns) / batched_ns);
    } while (overhead.size() < 3 && secondsSince(exec_t0) < seconds / 3);
    log.close(exec);
    for (size_t j = 0; j < in.jobs.size(); ++j)
        mismatches += warm_digest[j] != ref[j];
    auto seconds_at = [&](const Knobs &k) { return median(pass_s.at(k)); };
    auto ratio = [&](const Knobs &one, const Knobs &many) {
        return seconds_at(one) / seconds_at(many);
    };
    const Knobs jobs1 = wk.jobs == 1 ? wk : by_jobs;
    const Knobs jobs4 = wk.jobs == 1 ? by_jobs : wk;
    const Knobs threads1 = wk.threads == 1 ? wk : by_threads;
    const Knobs threads4 = wk.threads == 1 ? by_threads : wk;
    const Knobs width1 = wk.width == 1 ? wk : by_width;
    const Knobs width8 = wk.width == 1 ? by_width : wk;

    // obs: pairs of passes at the workload's knobs, observability off
    // and on, the order flipping from pair to pair.
    const int obs = log.open("obs", -1);
    std::vector<double> on_over_off;
    uint64_t pool_busy_ns = 0;
    uint64_t pool_idle_ns = 0;
    auto obs_pass = [&](bool on) {
        if (on) {
            Profiler::instance().start();
            WorkLedger::instance().start();
            MetricsRegistry::instance().setEnabled(true);
        }
        const int id = log.open(on ? "obs.pass_on" : "obs.pass_off", obs);
        const std::vector<AcamarRunReport> reps = batch.solveAll();
        log.close(id);
        check(reps, on ? "obs-on" : "obs-off");
        if (on) {
            MetricsRegistry::instance().setEnabled(false);
            const WorkLedgerReport lr = WorkLedger::instance().stop();
            (void)Profiler::instance().stop();
            pool_busy_ns += lr.poolBusyNs;
            pool_idle_ns += lr.poolIdleNs;
        }
        return log.at(id).ns();
    };
    const auto obs_t0 = Clock::now();
    while (on_over_off.size() < 2 ||
           (on_over_off.size() < 5 && secondsSince(obs_t0) < 2.0)) {
        const bool on_first = on_over_off.size() % 2 == 1;
        const double first = obs_pass(on_first);
        const double second = obs_pass(!on_first);
        on_over_off.push_back(on_first ? first / second : second / first);
    }
    log.close(obs);

    // accel + solvers: job by job, serially, Acamar::run called
    // directly, then each public call it makes re-run on its own.
    // Sweeps repeat within the time budget.
    std::vector<int> sweeps;
    std::vector<std::vector<int>> job_spans; // [sweep][job]
    std::vector<AcamarRunReport> direct(in.jobs.size());
    const auto sweep_t0 = Clock::now();
    do {
        const int sweep = log.open("trace.sweep", -1);
        job_spans.emplace_back();
        for (size_t j = 0; j < in.jobs.size(); ++j) {
            const Job &job = in.jobs[j];
            const CsrMatrix<float> &a = in.matrices[job.matrix];
            const int ji = static_cast<int>(j);
            const int js = log.open("job", sweep, ji);
            job_spans.back().push_back(js);

            // Even sweeps time the run before its parts, odd sweeps
            // after them (from the previous sweep's report), so drift
            // within a job does not bias the shares.
            auto time_run = [&] {
                Acamar acc(cfg);
                direct[j] = log.call("accel.run", js, ji,
                                     [&] { return acc.run(a, job.b); });
            };
            const bool run_first = sweeps.size() % 2 == 0;
            if (run_first)
                time_run();
            const AcamarRunReport &rep = direct[j];

            // The front-end units and the solver, as Acamar builds
            // them for one job.
            EventQueue eq;
            MatrixStructureUnit structure(&eq);
            FineGrainedReconfigUnit fgr(&eq, cfg);
            const MemoryModel mem(FpgaDevice::alveoU55c());
            DynamicSpmvKernel kernel(&eq, mem);
            std::unique_ptr<ParallelContext> pc;
            SolverWorkspace ws;
            if (cfg.hostThreads > 1) {
                pc = std::make_unique<ParallelContext>(cfg.hostThreads);
                ws.setParallel(pc.get());
            }
            (void)log.call("accel.analyze", js, ji,
                           [&] { return structure.analyze(a); });
            const ReconfigPlan plan = log.call(
                "accel.plan", js, ji, [&] { return fgr.plan(a); });
            for (size_t r = 0; r <= rep.attempts.size(); ++r) {
                (void)log.call("accel.replay", js, ji, [&] {
                    return kernel.timePlanned(a, plan);
                });
            }
            for (const TimedSolve &att : rep.attempts) {
                const auto solver = makeSolver(att.kind);
                (void)log.call("solvers.solve", js, ji, [&] {
                    return solver->solve(a, job.b, {}, cfg.criteria, ws);
                });
            }
            if (!run_first)
                time_run();
            log.close(js);

            // Grouped path: after a matrix's last job, one block
            // solve per group of up to `width` of its jobs, grouped
            // in submission order as BatchSolver groups them.
            const bool last_of_matrix =
                j + 1 == in.jobs.size() ||
                in.jobs[j + 1].matrix != job.matrix;
            if (wk.width > 1 && last_of_matrix &&
                blockSolverAvailable(rep.structure.solver)) {
                size_t first = j;
                while (first > 0 && in.jobs[first - 1].matrix == job.matrix)
                    --first;
                const auto block = makeBlockSolver(rep.structure.solver);
                const auto width = static_cast<size_t>(wk.width);
                for (size_t g = first; g <= j; g += width) {
                    std::vector<const std::vector<float> *> bs;
                    for (size_t i = g; i <= j && i < g + width; ++i)
                        bs.push_back(&in.jobs[i].b);
                    SolverWorkspace bws;
                    bws.setParallel(pc.get());
                    (void)log.call("solvers.block_solve", sweep,
                                   static_cast<int>(g), [&] {
                        return block->solve(a, bs, cfg.criteria, bws);
                    });
                }
            }
        }
        log.close(sweep);
        sweeps.push_back(sweep);
    } while (sweeps.size() < 5 && secondsSince(sweep_t0) < seconds);
    check(direct, "direct");

    // sparse: the library kernels on every distinct matrix, and the
    // same-run bandwidth ceiling at the largest one's SpMV traffic.
    const int sparse = log.open("sparse", -1);
    std::vector<KernelNs> kern;
    double max_bytes = 0.0;
    for (size_t m = 0; m < in.matrices.size(); ++m) {
        kern.push_back(
            timeKernels(log, sparse, m, in.matrices[m], wk.threads));
        max_bytes = std::max(max_bytes, kern.back().bytes);
    }
    const double triad = log.call("sparse.triad", sparse, -1, [&] {
        return triadGbps(static_cast<size_t>(max_bytes), wk.threads);
    });
    log.close(sparse);

    // ---- Derive the per-layer metrics from the spans. ----
    // Per job, the median over sweeps of each call's time, summed over
    // jobs, so one slow call in one sweep does not move a share.
    auto per_job = [&](const std::string &name) {
        double ns = 0.0;
        for (size_t j = 0; j < in.jobs.size(); ++j) {
            std::vector<double> v;
            for (const std::vector<int> &js : job_spans)
                v.push_back(log.sumUnder(js[j], name));
            ns += median(v);
        }
        return ns;
    };
    auto per_sweep = [&](const std::string &name) {
        std::vector<double> v;
        for (int sw : sweeps)
            v.push_back(log.sumUnder(sw, name));
        return median(v);
    };
    const double run_ns = per_job("accel.run");
    const double analyze_ns = per_job("accel.analyze");
    const double plan_ns = per_job("accel.plan");
    const double replay_ns = per_job("accel.replay");
    const double solve_ns = per_job("solvers.solve");
    const double block_ns = per_sweep("solvers.block_solve");
    const double sweep_ns = per_sweep("trace.sweep");

    int64_t nnz = 0;
    int64_t iterations = 0;
    int64_t first_ok = 0;
    double mcycles = 0.0;
    double drift = 0.0;
    double spmv_model_ns = 0.0;
    double vector_model_ns = 0.0;
    for (size_t j = 0; j < in.jobs.size(); ++j) {
        const Job &job = in.jobs[j];
        const CsrMatrix<float> &a = in.matrices[job.matrix];
        const KernelNs &k = kern[job.matrix];
        const AcamarRunReport &rep = p0[j];
        nnz += a.nnz();
        first_ok += rep.attempts.front().result.ok() ? 1 : 0;
        mcycles += static_cast<double>(
                       rep.latencyCycles(cfg.chargeReconfigTime)) /
                   1e6;
        const double reported = rep.attempts.back().result.relativeResidual;
        drift = std::max(drift, trueResidual(a, job.b, rep.solution()) /
                                    std::max(reported, 1e-300));
        for (const TimedSolve &att : rep.attempts) {
            const auto solver = makeSolver(att.kind);
            const KernelProfile it = solver->iterationProfile();
            const KernelProfile su = solver->setupProfile();
            const auto n = static_cast<double>(att.result.iterations);
            iterations += att.result.iterations;
            spmv_model_ns += (n * it.spmvs + su.spmvs) * k.spmv;
            vector_model_ns += (n * it.dots + su.dots) * k.dot +
                               (n * it.axpys + su.axpys) * k.axpy;
        }
    }
    int64_t spmv_bytes = 0;
    double spmv_ns = 0.0, spmv1_ns = 0.0, spmv4_ns = 0.0, spmm_ns = 0.0;
    for (size_t m = 0; m < kern.size(); ++m) {
        spmv_bytes += static_cast<int64_t>(kern[m].bytes);
        spmv_ns += kern[m].spmv;
        spmv1_ns += kern[m].spmv1;
        spmv4_ns += kern[m].spmv4;
        spmm_ns += kern[m].spmm8;
    }
    const auto mats = static_cast<double>(kern.size());
    const double spmv_gbps = static_cast<double>(spmv_bytes) / spmv_ns;
    const auto pool_ns = static_cast<double>(pool_busy_ns + pool_idle_ns);

    // What one span costs: open and close on a scratch log.
    double span_ns = 0.0;
    {
        constexpr int kSpans = 100000;
        SpanLog scratch;
        const uint64_t t0 = nowNs();
        for (int i = 0; i < kSpans; ++i)
            scratch.close(scratch.open("span", -1, i));
        span_ns = static_cast<double>(nowNs() - t0) / kSpans;
    }

    const double analyze_share = analyze_ns / run_ns;
    const double plan_share = plan_ns / run_ns;
    const double replay_share = replay_ns / run_ns;
    const double solve_share = solve_ns / run_ns;
    const double spmv_share = spmv_model_ns / run_ns;
    const double vector_share = vector_model_ns / run_ns;

    const auto nsweeps = static_cast<int64_t>(sweeps.size());
    const auto rounds = static_cast<int64_t>(overhead.size());
    const auto nmats = static_cast<int64_t>(kern.size());
    const auto npairs = static_cast<int64_t>(on_over_off.size());
    res.metrics = {
        {"accel.run_ms", run_ns / 1e6, "ms", nsweeps},
        {"accel.analyze_share", analyze_share, "fraction", nsweeps},
        {"accel.analyze_ns_per_nnz",
         analyze_ns / static_cast<double>(nnz), "ns/nnz", nsweeps},
        {"accel.plan_share", plan_share, "fraction", nsweeps},
        {"accel.replay_share", replay_share, "fraction", nsweeps},
        {"accel.unattributed_share",
         1.0 - analyze_share - plan_share - replay_share - solve_share,
         "fraction", nsweeps},
        {"accel.first_pick_ok",
         static_cast<double>(first_ok) / static_cast<double>(njobs),
         "fraction", njobs},
        {"accel.model_mcycles", mcycles, "Mcycles", njobs},
        {"solvers.solve_share", solve_share, "fraction", nsweeps},
        {"solvers.iterations", static_cast<double>(iterations), "count",
         njobs},
        {"solvers.us_per_iter",
         solve_ns / 1e3 / static_cast<double>(iterations), "us",
         nsweeps},
        {"solvers.control_share", solve_share - spmv_share - vector_share,
         "fraction", nsweeps},
        {"solvers.block_solve_ms", block_ns / 1e6, "ms", nsweeps},
        {"solvers.residual_drift_max", drift, "ratio", njobs},
        {"sparse.spmv_us", spmv_ns / mats / 1e3, "us", nmats},
        {"sparse.spmv_gbps", spmv_gbps, "GB/s", nmats},
        {"sparse.spmv_roofline", spmv_gbps / triad, "fraction", nmats},
        {"sparse.triad_gbps", triad, "GB/s", 3},
        {"sparse.spmv_share", spmv_share, "fraction", nsweeps},
        {"sparse.vector_share", vector_share, "fraction", nsweeps},
        {"sparse.spmm_us", spmm_ns / mats / 1e3, "us", nmats},
        {"sparse.spmm_amortization", 8.0 * spmv_ns / spmm_ns, "ratio",
         nmats},
        {"exec.batch_speedup", ratio(jobs1, jobs4), "ratio", rounds},
        {"exec.pool_idle_share",
         pool_ns > 0.0 ? static_cast<double>(pool_idle_ns) / pool_ns
                       : 0.0,
         "fraction", npairs},
        {"exec.thread_speedup", ratio(threads1, threads4), "ratio",
         rounds},
        {"exec.spmv_thread_speedup", spmv1_ns / spmv4_ns, "ratio", nmats},
        {"exec.group_speedup", ratio(width1, width8), "ratio", rounds},
        {"exec.batch_overhead_share", median(overhead), "fraction",
         rounds},
        {"exec.determinism_mismatches", static_cast<double>(mismatches),
         "count", njobs},
        {"obs.on_overhead", median(on_over_off) - 1.0, "fraction",
         npairs},
        {"setup.generate_share", times.generate / times.total(),
         "fraction", 1},
        {"setup.warmup_share", times.warmup / times.total(), "fraction",
         1},
        {"trace.pass_ms", sweep_ns / 1e6, "ms", nsweeps},
        {"trace.untraced_pass_ms", seconds_at(wk) * 1e3, "ms", rounds},
        {"trace.spans",
         static_cast<double>(log.countUnder(sweeps.front())), "count",
         1},
        {"trace.span_ns", span_ns, "ns", 100000},
    };

    res.correct = res.failed == 0 && mismatches == 0;

    if (!spans_out.empty() && !log.write(spans_out)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     spans_out.c_str());
        return 1;
    }
    print(Context{&w, &in, seed, 1, iterationsOf(p0)}, res);
    return 0;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2e_solve: %s\nusage: e2e_solve --workload "
                 "<chunk4k|multirhs8> --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans-out <file>] [--small] "
                 "[--corrupt-job <i>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spans_out;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    bool small = false;
    long corrupt = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--small") {
            small = true;
        } else if (!has_value) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            workload = argv[++i];
        } else if (arg == "--seed") {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            trace = std::atoi(argv[++i]);
        } else if (arg == "--spans-out") {
            spans_out = argv[++i];
        } else if (arg == "--corrupt-job") {
            corrupt = std::strtol(argv[++i], nullptr, 10);
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    const std::optional<Workload> w = makeWorkload(workload, small);
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (!(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage("--seconds must be > 0 and --trace 0 or 1");
    if (profilerEnabled() || workLedgerEnabled() || metricsEnabled() ||
        traceEnabled())
        return usage("observability must start switched off");

    return trace ? runTraced(*w, seed, seconds, spans_out)
                 : runEndToEnd(*w, seed, seconds, corrupt);
}
