/**
 * @file
 * Unit tests for the runtime phase: tuning tables, the entropy
 * profile, the greedy accuracy tuner (Fig. 12), the runtime kernel
 * scheduler, calibration, and the executor.
 */

#include <gtest/gtest.h>

#include <limits>

#include "data/synthetic.hh"
#include "nn/model_zoo.hh"
#include "pcnn/runtime/accuracy_tuner.hh"
#include "pcnn/runtime/calibration.hh"
#include "pcnn/runtime/executor.hh"
#include "pcnn/runtime/kernel_scheduler.hh"
#include "train/trainer.hh"

namespace pcnn {
namespace {

// ------------------------------------------------------- TuningTable

TuningEntry
entry(double time_s, double entropy, double speedup)
{
    TuningEntry e;
    e.positions = {100, 100};
    e.predictedTimeS = time_s;
    e.entropy = entropy;
    e.speedup = speedup;
    return e;
}

TEST(TuningTable, SelectsFastestWithinThreshold)
{
    TuningTable t;
    t.push(entry(1.0, 0.4, 1.0));
    t.push(entry(0.8, 0.6, 1.25));
    t.push(entry(0.6, 0.9, 1.67));
    t.push(entry(0.4, 1.5, 2.5));
    EXPECT_EQ(t.selectLevel(1.0), 2u);
    EXPECT_EQ(t.selectLevel(0.5), 0u);
    EXPECT_EQ(t.selectLevel(2.0), 3u);
    EXPECT_NEAR(t.bestSpeedup(1.0), 1.67, 1e-9);
}

TEST(TuningTable, Level0WhenEverythingViolates)
{
    TuningTable t;
    t.push(entry(1.0, 2.0, 1.0));
    t.push(entry(0.5, 3.0, 2.0));
    EXPECT_EQ(t.selectLevel(1.0), 0u);
}

// ---------------------------------------------------- EntropyProfile

TEST(EntropyProfile, RepresentativeMonotonic)
{
    const EntropyProfile p = EntropyProfile::representative();
    // Entropy rises and accuracy falls as keep shrinks.
    EXPECT_LT(p.entropyAt(1.0), p.entropyAt(0.5));
    EXPECT_LT(p.entropyAt(0.5), p.entropyAt(0.15));
    EXPECT_GT(p.accuracyAt(1.0), p.accuracyAt(0.3));
}

TEST(EntropyProfile, InterpolatesAndClamps)
{
    const EntropyProfile p({{0.5, 1.0, 0.8}, {1.0, 0.5, 0.9}});
    EXPECT_NEAR(p.entropyAt(0.75), 0.75, 1e-9);
    EXPECT_NEAR(p.entropyAt(0.1), 1.0, 1e-9);  // clamped low
    EXPECT_NEAR(p.entropyAt(2.0), 0.5, 1e-9);  // clamped high
    EXPECT_NEAR(p.accuracyAt(0.75), 0.85, 1e-9);
}

TEST(EntropyProfile, CalibrationOnTrainedNet)
{
    SyntheticTaskConfig cfg;
    cfg.difficulty = 0.4;
    cfg.seed = 60;
    SyntheticTask task(cfg);
    Dataset train_set = task.generate(768);
    Dataset test_set = task.generate(192);
    Rng rng(61);
    Network net = makeMiniNet(MiniSize::Medium, rng);
    TrainConfig tc;
    tc.epochs = 4;
    Trainer trainer(net, tc);
    trainer.fit(train_set);

    const EntropyProfile prof =
        EntropyProfile::calibrate(net, test_set, 6);
    ASSERT_GE(prof.points().size(), 6u);
    // Exact network beats heavily perforated network.
    EXPECT_GT(prof.accuracyAt(1.0), prof.accuracyAt(0.2));
    EXPECT_LT(prof.entropyAt(1.0), prof.entropyAt(0.2) + 1e-9);
    // Perforation left disabled afterwards.
    for (ConvLayer *c : net.convLayers())
        EXPECT_FALSE(c->perforated());
}

// ----------------------------------------------------- AccuracyTuner

class TunerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SyntheticTaskConfig cfg;
        cfg.difficulty = 0.4;
        cfg.seed = 70;
        task.emplace(cfg);
        Dataset train_set = task->generate(768);
        rng.emplace(71);
        net.emplace(makeMiniNet(MiniSize::Medium, *rng));
        TrainConfig tc;
        tc.epochs = 4;
        Trainer trainer(*net, tc);
        trainer.fit(train_set);

        // Batch 64: the conv kernels dominate the latency, so
        // perforation has a measurable effect on predicted time (at
        // batch 1 a toy network is pure launch overhead).
        const OfflineCompiler compiler(jetsonTx1());
        plan = compiler.compileAtBatch(describe(*net), 64);
    }

    std::optional<SyntheticTask> task;
    std::optional<Rng> rng;
    std::optional<Network> net;
    CompiledPlan plan;
};

TEST_F(TunerFixture, EntropyGuidedPathIsMonotonicInTime)
{
    TunerConfig cfg;
    cfg.entropyThreshold = 1.4;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const Dataset tune_data = task->generate(128);
    const TuningTable table = tuner.tuneNetwork(
        *net, plan, tune_data.batch(0, tune_data.size()));

    ASSERT_GE(table.levels(), 2u) << "tuner never moved";
    for (std::size_t i = 1; i < table.levels(); ++i) {
        EXPECT_LT(table.entry(i).predictedTimeS,
                  table.entry(i - 1).predictedTimeS)
            << "level " << i;
        EXPECT_GE(table.entry(i).speedup, 1.0);
        EXPECT_GE(table.entry(i).adjustedLayer, 0);
    }
    // Speedup consistent with predicted times.
    const TuningEntry &last = table.entry(table.levels() - 1);
    EXPECT_NEAR(last.speedup,
                table.entry(0).predictedTimeS / last.predictedTimeS,
                1e-9);
}

TEST_F(TunerFixture, StopsOnceThresholdExceeded)
{
    TunerConfig cfg;
    cfg.entropyThreshold = 0.9;
    cfg.maxIterations = 30;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const Dataset tune_data = task->generate(128);
    const TuningTable table = tuner.tuneNetwork(
        *net, plan, tune_data.batch(0, tune_data.size()));

    // Only the final level may exceed the threshold.
    for (std::size_t i = 0; i + 1 < table.levels(); ++i)
        EXPECT_LE(table.entry(i).entropy, cfg.entropyThreshold);
}

TEST_F(TunerFixture, AccuracyGuidedComparatorRuns)
{
    TunerConfig cfg;
    cfg.maxAccuracyDrop = 0.10;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const Dataset labeled = task->generate(192);
    const TuningTable table =
        tuner.tuneNetworkByAccuracy(*net, plan, labeled);
    ASSERT_GE(table.levels(), 2u);
    // All but the last level stay within the accuracy budget.
    const double acc0 = table.entry(0).accuracy;
    for (std::size_t i = 0; i + 1 < table.levels(); ++i)
        EXPECT_GE(table.entry(i).accuracy, acc0 - cfg.maxAccuracyDrop);
}

TEST(AccuracyTunerModeled, ProducesPathOnAlexNet)
{
    const OfflineCompiler compiler(jetsonTx1());
    const CompiledPlan plan = compiler.compileAtBatch(alexNet(), 1);
    TunerConfig cfg;
    cfg.entropyThreshold = 1.2;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const TuningTable table =
        tuner.tuneModeled(plan, EntropyProfile::representative());
    ASSERT_GE(table.levels(), 3u);
    const std::size_t sel = table.selectLevel(1.2);
    EXPECT_GT(sel, 0u) << "tuning found no acceptable speedup";
    EXPECT_GT(table.entry(sel).speedup, 1.2);
}

// ---------------------------------------------- RuntimeKernelScheduler

TEST(RuntimeKernelScheduler, PcnnPolicySavesEnergy)
{
    const OfflineCompiler compiler(k20c());
    const CompiledPlan plan = compiler.compileAtBatch(alexNet(), 1);
    const RuntimeKernelScheduler rt(k20c());
    const SimResult base = rt.execute(plan, baselinePolicy());
    const SimResult opt = rt.execute(plan, pcnnPolicy());
    // Power gating idle SMs on underutilized layers saves energy...
    EXPECT_LT(opt.energy.total(), base.energy.total());
    // ...without a catastrophic time cost.
    EXPECT_LT(opt.timeS, base.timeS * 2.0);
}

TEST(RuntimeKernelScheduler, PerforationShortensExecution)
{
    const OfflineCompiler compiler(jetsonTx1());
    const CompiledPlan plan = compiler.compileAtBatch(alexNet(), 1);
    const RuntimeKernelScheduler rt(jetsonTx1());
    std::vector<std::size_t> half;
    for (const LayerSchedule &ls : plan.layers)
        half.push_back(
            std::max<std::size_t>(1, ls.layer.outH() *
                                         ls.layer.outW() / 2));
    const SimResult full = rt.execute(plan, pcnnPolicy());
    const SimResult perf = rt.execute(plan, pcnnPolicy(), &half);
    EXPECT_LT(perf.timeS, full.timeS);
    EXPECT_LT(perf.energy.total(), full.energy.total());
}

TEST(RuntimeKernelScheduler, ExecuteLevelsMatchesOneLevelCalls)
{
    // The multi-level call simulates each distinct launch once and
    // reuses it; every level must still be bitwise what a separate
    // one-level call returns.
    TunerConfig cfg;
    cfg.entropyThreshold = std::numeric_limits<double>::infinity();
    for (const NetDescriptor &net : {alexNet(), googleNet()}) {
        for (const GpuSpec &gpu : allGpus()) {
            const CompiledPlan plan =
                OfflineCompiler(gpu).compileAtBatch(net, 1);
            const TuningTable table =
                AccuracyTuner(gpu, cfg).tuneModeled(
                    plan, EntropyProfile::representative());
            // Level 0 both as exact execution and as its explicit
            // full-grid positions.
            std::vector<const std::vector<std::size_t> *> levels = {
                nullptr};
            for (const TuningEntry &e : table.all())
                levels.push_back(&e.positions);
            const RuntimeKernelScheduler rt(gpu);
            for (const ExecPolicy &policy :
                 {pcnnPolicy(), baselinePolicy()}) {
                const std::vector<SimResult> all =
                    rt.executeLevels(plan, policy, levels);
                ASSERT_EQ(all.size(), levels.size());
                for (std::size_t i = 0; i < levels.size(); ++i) {
                    SCOPED_TRACE(net.name + " on " + gpu.name + " " +
                                 schedKindName(policy.scheduler) +
                                 " level " + std::to_string(i));
                    const SimResult one =
                        rt.execute(plan, policy, levels[i]);
                    EXPECT_EQ(all[i].timeS, one.timeS);
                    EXPECT_EQ(all[i].flops, one.flops);
                    EXPECT_EQ(all[i].energy.baseJ, one.energy.baseJ);
                    EXPECT_EQ(all[i].energy.staticJ, one.energy.staticJ);
                    EXPECT_EQ(all[i].energy.dynamicJ,
                              one.energy.dynamicJ);
                    EXPECT_EQ(all[i].smsUsed, one.smsUsed);
                    EXPECT_EQ(all[i].smsPowered, one.smsPowered);
                    EXPECT_EQ(all[i].smBusyS, one.smBusyS);
                }
            }
        }
    }
}

// -------------------------------------------------------- Calibrator

TEST(Calibrator, StartsAtSelectedLevel)
{
    TuningTable t;
    t.push(entry(1.0, 0.4, 1.0));
    t.push(entry(0.7, 0.8, 1.4));
    t.push(entry(0.5, 1.5, 2.0));
    Calibrator cal(t, 1.0);
    EXPECT_EQ(cal.currentLevel(), 1u);
}

TEST(Calibrator, BacktracksOnViolation)
{
    TuningTable t;
    t.push(entry(1.0, 0.4, 1.0));
    t.push(entry(0.7, 0.8, 1.4));
    Calibrator cal(t, 1.0);
    ASSERT_EQ(cal.currentLevel(), 1u);
    EXPECT_TRUE(cal.observe(1.3)); // live data harder than tuning data
    EXPECT_EQ(cal.currentLevel(), 0u);
    EXPECT_EQ(cal.backtracks(), 1u);
    // At level 0 there is nowhere left to go.
    EXPECT_FALSE(cal.observe(2.0));
}

TEST(Calibrator, NoChangeWhenWithinThreshold)
{
    TuningTable t;
    t.push(entry(1.0, 0.4, 1.0));
    t.push(entry(0.7, 0.8, 1.4));
    Calibrator cal(t, 1.0);
    EXPECT_FALSE(cal.observe(0.9));
    EXPECT_EQ(cal.currentLevel(), 1u);
}

// ---------------------------------------------------------- Executor

TEST(ExecutorTest, EndToEndInferenceWithTuning)
{
    SyntheticTaskConfig cfg;
    cfg.difficulty = 0.4;
    cfg.seed = 80;
    SyntheticTask task(cfg);
    Dataset train_set = task.generate(768);
    Rng rng(81);
    Network net = makeMiniNet(MiniSize::Medium, rng);
    TrainConfig tc;
    tc.epochs = 4;
    Trainer trainer(net, tc);
    trainer.fit(train_set);

    const GpuSpec gpu = jetsonTx1();
    const OfflineCompiler compiler(gpu);
    CompiledPlan plan = compiler.compileAtBatch(describe(net), 1);

    TunerConfig tcfg;
    tcfg.entropyThreshold = 1.3;
    Executor exec(net, plan, gpu, tcfg);

    // Before tuning: exact network.
    Dataset req = task.generate(16);
    const InferenceResult r0 = exec.infer(req.batch(0, 16));
    EXPECT_EQ(r0.tuningLevel, 0u);
    EXPECT_GT(r0.simLatencyS, 0.0);
    EXPECT_GT(r0.energyJ, 0.0);

    // Tune, then the selected level should be faster.
    Dataset tune_data = task.generate(128);
    exec.tune(tune_data.batch(0, 128));
    EXPECT_GE(exec.tuningTable().levels(), 2u);
    const InferenceResult r1 = exec.infer(req.batch(0, 16));
    EXPECT_LE(r1.simLatencyS, r0.simLatencyS + 1e-9);
    // Predictions remain sensible (accuracy of the batch not zero).
    std::size_t hits = 0;
    for (std::size_t i = 0; i < 16; ++i)
        hits += r1.predictions[i] == req.label(i);
    EXPECT_GT(hits, 4u);
}

} // namespace
} // namespace pcnn
