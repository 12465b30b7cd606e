/**
 * Differential tests for the indexed / incremental e-matcher: the
 * compiled, index-driven path (ematch / ematchDirty) must produce the
 * exact match list — same set, same order — as the pre-index reference
 * matcher (ematchNaive), on randomized e-graphs, across random union
 * sequences, and across checkpoint/rollback.
 */
#include <gtest/gtest.h>

#include <random>

#include "egraph/pattern.h"
#include "egraph/runner.h"
#include "rover/rover.h"
#include "support/error.h"

namespace seer::eg {
namespace {

/** Canonicalize a match so lists taken at different times compare. */
Match
canon(const EGraph &eg, const Match &m)
{
    Match out;
    out.root = eg.find(m.root);
    for (const auto &[var, id] : m.subst)
        out.subst[var] = eg.find(id);
    return out;
}

bool
sameMatch(const Match &a, const Match &b)
{
    return a.root == b.root && a.subst == b.subst;
}

/** Exact list equality: same matches in the same order. */
void
expectSameMatchList(const std::vector<Match> &got,
                    const std::vector<Match> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(sameMatch(got[i], want[i]))
            << what << ": mismatch at index " << i << " (root " << got[i].root
            << " vs " << want[i].root << ")";
    }
}

/** The pattern pool every differential test matches with: linear,
 *  non-linear, nested, wide, and the bare-variable full scan. */
std::vector<PatternPtr>
patternPool()
{
    return {
        parsePattern("(f ?x ?y)"),
        parsePattern("(f ?x ?x)"),
        parsePattern("(f (g ?x) ?y)"),
        parsePattern("(g (f ?x ?y))"),
        parsePattern("(k ?a ?b ?a)"),
        parsePattern("(f (f ?a ?b) (g ?c))"),
        parsePattern("?v"),
    };
}

/** Grow a random e-graph: random nodes over a small op pool wired to
 *  random existing classes, then a burst of random unions + rebuild. */
struct RandomGraph
{
    EGraph eg;
    std::vector<EClassId> ids;

    explicit RandomGraph(uint32_t seed, size_t adds = 120,
                         size_t unions = 25)
    {
        std::mt19937 rng(seed);
        const std::pair<const char *, size_t> ops[] = {
            {"f", 2}, {"g", 1}, {"h", 2}, {"k", 3},
            {"a", 0}, {"b", 0}, {"c", 0}, {"d", 0},
        };
        // Seed with leaves so early nodes have children to pick.
        for (size_t i = 4; i < 8; ++i)
            ids.push_back(eg.add(ENode{Symbol(ops[i].first), {}}));
        for (size_t i = 0; i < adds; ++i) {
            const auto &[op, arity] = ops[rng() % 8];
            ENode node{Symbol(op), {}};
            for (size_t c = 0; c < arity; ++c)
                node.children.push_back(ids[rng() % ids.size()]);
            ids.push_back(eg.add(node));
        }
        for (size_t i = 0; i < unions; ++i) {
            eg.merge(ids[rng() % ids.size()], ids[rng() % ids.size()]);
            if (rng() % 4 == 0)
                eg.rebuild();
        }
        eg.rebuild();
    }
};

TEST(EMatchDifferentialTest, IndexedEqualsNaiveOnRandomGraphs)
{
    for (uint32_t seed = 1; seed <= 8; ++seed) {
        RandomGraph g(seed);
        ASSERT_EQ(g.eg.debugCheckInvariants(), "") << "seed " << seed;
        for (const PatternPtr &p : patternPool()) {
            auto indexed = ematch(g.eg, *p);
            auto naive = ematchNaive(g.eg, *p);
            expectSameMatchList(indexed, naive, p->str().c_str());
        }
    }
}

TEST(EMatchDifferentialTest, LimitTruncatesIdenticalPrefix)
{
    RandomGraph g(42);
    for (const PatternPtr &p : patternPool()) {
        auto full = ematch(g.eg, *p);
        for (size_t limit : {size_t(1), size_t(3), full.size() + 1}) {
            auto capped = ematch(g.eg, *p, limit);
            auto capped_naive = ematchNaive(g.eg, *p, limit);
            size_t want = std::min(limit, full.size());
            ASSERT_EQ(capped.size(), want);
            expectSameMatchList(capped, capped_naive, "limit");
            for (size_t i = 0; i < capped.size(); ++i)
                EXPECT_TRUE(sameMatch(capped[i], full[i]));
        }
    }
}

/** ematchDirty(watermark) + the surviving clean-rooted old matches must
 *  reassemble exactly the fresh full match list (the runner's cache
 *  merge invariant). */
TEST(EMatchDifferentialTest, DirtyPlusCleanCacheEqualsFullRescan)
{
    for (uint32_t seed = 100; seed < 104; ++seed) {
        RandomGraph g(seed);
        std::mt19937 rng(seed * 7 + 1);
        for (const PatternPtr &p : patternPool()) {
            auto before = ematch(g.eg, *p);
            uint64_t watermark = g.eg.tick();

            // Mutate: a few adds and unions, then rebuild (dirtiness
            // propagates to ancestor cones only at rebuild).
            for (int i = 0; i < 6; ++i) {
                ENode node{Symbol("f"),
                           {g.ids[rng() % g.ids.size()],
                            g.ids[rng() % g.ids.size()]}};
                g.ids.push_back(g.eg.add(node));
            }
            g.eg.merge(g.ids[rng() % g.ids.size()],
                       g.ids[rng() % g.ids.size()]);
            g.eg.rebuild();

            auto full = ematch(g.eg, *p);
            auto dirty = ematchDirty(g.eg, *p, watermark);

            std::vector<Match> merged;
            size_t di = 0;
            for (const Match &m : before) {
                if (g.eg.find(m.root) != m.root)
                    continue; // root lost its canonicity: superseded
                if (g.eg.timestampOf(m.root) > watermark)
                    continue; // dirty root: re-found by ematchDirty
                while (di < dirty.size() && dirty[di].root < m.root)
                    merged.push_back(canon(g.eg, dirty[di++]));
                merged.push_back(canon(g.eg, m));
            }
            while (di < dirty.size())
                merged.push_back(canon(g.eg, dirty[di++]));

            std::vector<Match> full_canon;
            for (const Match &m : full)
                full_canon.push_back(canon(g.eg, m));
            expectSameMatchList(merged, full_canon, p->str().c_str());
        }
    }
}

TEST(EMatchDifferentialTest, MatchesRestoredAcrossRollback)
{
    for (uint32_t seed = 7; seed < 10; ++seed) {
        RandomGraph g(seed);
        std::mt19937 rng(seed);
        auto pool = patternPool();

        std::vector<std::vector<Match>> before;
        for (const PatternPtr &p : pool)
            before.push_back(ematch(g.eg, *p));
        uint64_t generation = g.eg.rollbackGeneration();

        auto cp = g.eg.checkpoint();
        for (int i = 0; i < 10; ++i) {
            ENode node{Symbol("g"), {g.ids[rng() % g.ids.size()]}};
            g.eg.add(node);
        }
        g.eg.merge(g.ids[rng() % g.ids.size()],
                   g.ids[rng() % g.ids.size()]);
        g.eg.rebuild();
        g.eg.rollback(cp);

        ASSERT_EQ(g.eg.debugCheckInvariants(), "") << "seed " << seed;
        EXPECT_GT(g.eg.rollbackGeneration(), generation)
            << "rollback must invalidate incremental caches";
        for (size_t i = 0; i < pool.size(); ++i) {
            auto after = ematch(g.eg, *pool[i]);
            auto naive = ematchNaive(g.eg, *pool[i]);
            expectSameMatchList(after, before[i], "restored after rollback");
            expectSameMatchList(after, naive, "vs naive after rollback");
        }
    }
}

TEST(EMatchDifferentialTest, StatsReflectIndexAndWatermark)
{
    RandomGraph g(3);
    PatternPtr p = parsePattern("(f ?x ?y)");

    EMatchStats stats;
    ematch(g.eg, *p, 0, &stats);
    EXPECT_TRUE(stats.used_index);
    EXPECT_GT(stats.candidates_visited, 0u);

    // Nothing changed since the current tick: the watermark filters
    // every candidate out.
    EMatchStats clean;
    auto none = ematchDirty(g.eg, *p, g.eg.tick(), 0, &clean);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(clean.candidates_visited, 0u);
    EXPECT_GT(clean.skipped_clean, 0u);

    // Bare variable: no head operator to index on.
    EMatchStats bare;
    ematch(g.eg, *parsePattern("?v"), 0, &bare);
    EXPECT_FALSE(bare.used_index);
}

/** End-to-end: a rover saturation run must be bit-identical between the
 *  naive reference matcher and the indexed + incremental default. */
TEST(RunnerDifferentialTest, NaiveAndIndexedRunsAreIdentical)
{
    auto runOnce = [](bool naive) {
        EGraph eg(rover::roverAnalysisHooks());
        eg.addTerm(parseTerm(
            "(arith.addi:i32 (arith.muli:i32 var:x const:12:i32) "
            "(arith.addi:i32 (arith.muli:i32 var:y const:6:i32) "
            "(arith.muli:i32 var:x const:3:i32)))"));
        RunnerOptions options;
        options.max_iters = 6;
        options.max_nodes = 20000;
        options.record_proofs = false;
        options.naive_match = naive;
        Runner runner(eg, options);
        runner.addRules(rover::roverRules());
        RunnerReport report = runner.run();
        std::vector<size_t> per_rule;
        for (const RuleStats &rule : report.rules)
            per_rule.push_back(rule.matches);
        return std::make_tuple(report.total_applied,
                               report.iterations.size(), eg.numNodes(),
                               eg.numClasses(), per_rule);
    };

    auto naive = runOnce(true);
    auto indexed = runOnce(false);
    EXPECT_EQ(std::get<0>(naive), std::get<0>(indexed));
    EXPECT_EQ(std::get<1>(naive), std::get<1>(indexed));
    EXPECT_EQ(std::get<2>(naive), std::get<2>(indexed));
    EXPECT_EQ(std::get<3>(naive), std::get<3>(indexed));
    EXPECT_EQ(std::get<4>(naive), std::get<4>(indexed))
        << "per-rule match counts must not depend on the matcher";
}

/**
 * A full runner sweep — static and dynamic rules, backoff truncation,
 * guarded crashing rules that force mid-run checkpoint rollbacks and
 * quarantine events, incremental match caches invalidated by those
 * rollbacks — must be bit-identical between the naive reference matcher
 * and the indexed + incremental default. "Bit-identical" here means:
 * the final e-graph (node/class counts and every pattern's match list),
 * the proof records, and the entire stats JSON with wall-clock timings
 * and the matcher's own work counters normalized out.
 */
TEST(RunnerDifferentialTest, FaultySweepNaiveAndIndexedAreBitIdentical)
{
    struct Outcome
    {
        std::string report_json;
        size_t nodes = 0;
        size_t classes = 0;
        std::vector<std::string> records;
        std::vector<std::vector<Match>> matches;
    };

    auto normalized = [](RunnerReport report) {
        // How the matchers search (candidates visited, index vs. full
        // scans, cache reuse) legitimately differs; what they find must
        // not.
        for (RuleStats &rule : report.rules) {
            rule.search_seconds = 0;
            rule.apply_seconds = 0;
            rule.search_candidates = 0;
            rule.search_skipped_clean = 0;
        }
        for (IterationStats &it : report.iterations)
            it.seconds = 0;
        report.total_seconds = 0;
        report.match_phase = MatchPhaseStats{};
        return toJson(report).dump(2);
    };

    auto runOnce = [&](uint32_t seed, bool naive) {
        // Few unions: heavy random merging congruence-collapses a small
        // op alphabet into near-degenerate graphs (single-digit class
        // counts) with too few matches to truncate.
        RandomGraph g(seed, 160, 5);
        // A wide fan of f-nodes over distinct leaves gives one rule a
        // candidate list far past its match budget, so backoff
        // truncation cuts a long, incrementally merged match list.
        std::mt19937 rng(seed * 31 + 5);
        for (int i = 0; i < 600; ++i) {
            g.ids.push_back(g.eg.add(
                ENode{Symbol("leaf" + std::to_string(i)), {}}));
        }
        for (int i = 0; i < 1200; ++i) {
            ENode node{Symbol("f"),
                       {g.ids[rng() % g.ids.size()],
                        g.ids[rng() % g.ids.size()]}};
            g.ids.push_back(g.eg.add(node));
        }
        g.eg.rebuild();

        RunnerOptions options;
        options.max_iters = 5;
        options.match_limit = 7; // force truncation and bans
        options.ban_length = 1;
        options.record_proofs = true;
        options.catch_rule_errors = true;
        options.quarantine_after = 2;
        options.naive_match = naive;

        Runner runner(g.eg, options);
        runner.addRule(makeRewrite("comm", "(f ?x ?y)", "(f ?y ?x)"));
        runner.addRule(makeRewrite("widen", "(g ?x)", "(h ?x ?x)"));
        runner.addRule(makeRewrite("narrow", "(h ?x ?y)", "(g ?x)"));
        // Always throws: every application rolls its checkpoint back
        // (bumping the rollback generation, which invalidates every
        // incremental cache) and the circuit breaker quarantines it.
        runner.addRule(makeDynRewrite(
            "crash", "(k ?a ?b ?c)",
            [](EGraph &, const Match &) -> std::optional<TermPtr> {
                throw FatalError("injected search-sweep crash");
            }));
        // Throws on half its matches (keyed on the match root, which
        // both matchers must report identically), so rollbacks
        // interleave with successful dynamic unions.
        runner.addRule(makeDynRewrite(
            "flaky", "(g ?x)",
            [](EGraph &, const Match &m) -> std::optional<TermPtr> {
                if (m.root % 2 == 0)
                    throw FatalError("injected flaky crash");
                return parseTerm("flaky_leaf");
            }));
        RunnerReport report = runner.run();

        // The scenario must genuinely exercise the incremental path,
        // the rollbacks and the backoff truncation, or the sweep proves
        // nothing about them.
        if (!naive) {
            EXPECT_GT(report.match_phase.incremental_scans, 0u);
            EXPECT_GT(report.match_phase.cached_matches_reused, 0u);
        }
        EXPECT_GT(report.rules_quarantined, 0u);
        EXPECT_GT(report.rules[0].bans, 0u);

        Outcome out;
        for (const RewriteRecord &record : report.records)
            out.records.push_back(record.rule);
        out.report_json = normalized(std::move(report));
        out.nodes = g.eg.numNodes();
        out.classes = g.eg.numClasses();
        for (const PatternPtr &p : patternPool())
            out.matches.push_back(ematch(g.eg, *p));
        EXPECT_EQ(g.eg.debugCheckInvariants(), "");
        return out;
    };

    for (uint32_t seed = 60; seed < 63; ++seed) {
        Outcome naive = runOnce(seed, true);
        Outcome indexed = runOnce(seed, false);
        EXPECT_EQ(indexed.report_json, naive.report_json)
            << "stats JSON diverged at seed " << seed;
        EXPECT_EQ(indexed.nodes, naive.nodes) << "seed " << seed;
        EXPECT_EQ(indexed.classes, naive.classes) << "seed " << seed;
        EXPECT_EQ(indexed.records, naive.records)
            << "proof records diverged at seed " << seed;
        ASSERT_EQ(indexed.matches.size(), naive.matches.size());
        for (size_t i = 0; i < naive.matches.size(); ++i)
            expectSameMatchList(indexed.matches[i], naive.matches[i],
                                "final match lists");
    }
}

/** A mid-run *external* rollback (a caller checkpoint spanning runner
 *  activity) must leave the naive and indexed matchers in identical
 *  states too: the sweep above covers per-application rollbacks, this
 *  covers the coarse phase-rollback pattern core/seer.cc uses. */
TEST(RunnerDifferentialTest, ExternalCheckpointRollbackNaiveAndIndexedAgree)
{
    auto runOnce = [](bool naive) {
        RandomGraph g(91, 140, 20);
        auto cp = g.eg.checkpoint();
        RunnerOptions options;
        options.max_iters = 3;
        options.match_limit = 16;
        options.record_proofs = false;
        options.naive_match = naive;
        Runner runner(g.eg, options);
        runner.addRule(makeRewrite("comm", "(f ?x ?y)", "(f ?y ?x)"));
        runner.addRule(makeRewrite("widen", "(g ?x)", "(h ?x ?x)"));
        runner.run();
        g.eg.rollback(cp);

        // Run again on the restored graph: the operator index and the
        // stamps must have rewound, so the indexed matcher finds what
        // the naive full scan finds.
        Runner again(g.eg, options);
        again.addRule(makeRewrite("comm", "(f ?x ?y)", "(f ?y ?x)"));
        again.addRule(makeRewrite("widen", "(g ?x)", "(h ?x ?x)"));
        RunnerReport report = again.run();
        EXPECT_EQ(g.eg.debugCheckInvariants(), "");
        return std::make_tuple(report.total_applied, g.eg.numNodes(),
                               g.eg.numClasses());
    };

    EXPECT_EQ(runOnce(false), runOnce(true));
}

} // namespace
} // namespace seer::eg
