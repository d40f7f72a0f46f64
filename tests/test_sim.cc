/**
 * @file
 * Unit tests for the CTA-level simulator: schedulers (RR vs PSM,
 * Fig. 7), work conservation, energy accounting, and power gating.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "gpu/gpu_spec.hh"
#include "gpu/kernel_model.hh"
#include "gpu/sim/cta_scheduler.hh"
#include "gpu/sim/energy_model.hh"
#include "gpu/sim/gpu_sim.hh"
#include "nn/model_zoo.hh"
#include "pcnn/schedulers/ideal.hh"
#include "pcnn/task.hh"

namespace pcnn {
namespace {

/** A simple compute-bound kernel for scheduler experiments. */
KernelDesc
kernel(std::size_t grid, double cta_flops = 1e7,
       std::size_t block = 256)
{
    KernelDesc k;
    k.name = "test";
    k.gridSize = grid;
    k.ctaWorkFlops = cta_flops;
    k.blockSize = block;
    k.issueDensity = 0.6;
    k.bytesPerFlop = 0.0;
    return k;
}

/** A 4-SM toy GPU matching the Fig. 7 illustration. */
GpuSpec
toyGpu()
{
    GpuSpec g = jetsonTx1();
    g.name = "Toy4";
    g.numSMs = 4;
    return g;
}

// ------------------------------------------------------ CtaScheduler

TEST(CtaScheduler, RoundRobinDealsAcrossSms)
{
    RoundRobinScheduler rr;
    std::vector<std::size_t> resident(4, 0), chosen;
    EXPECT_EQ(rr.placeCtas(resident, 2, 4, chosen), 4u);
    // Fig. 7 RR: four CTAs on four different SMs.
    EXPECT_EQ(resident, (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(CtaScheduler, PsmPacksLowSmsFirst)
{
    PrioritySmScheduler psm(4);
    std::vector<std::size_t> resident(4, 0), chosen;
    EXPECT_EQ(psm.placeCtas(resident, 2, 4, chosen), 4u);
    // Fig. 7 PSM: two CTAs each on SM0 and SM1, SM2/SM3 untouched.
    EXPECT_EQ(resident, (std::vector<std::size_t>{2, 2, 0, 0}));
}

TEST(CtaScheduler, PsmRespectsSmBudget)
{
    PrioritySmScheduler psm(2);
    std::vector<std::size_t> resident(4, 0), chosen;
    resident[0] = resident[1] = 3;
    EXPECT_EQ(psm.placeCtas(resident, 3, 1, chosen), 0u);
}

TEST(CtaScheduler, RrReportsFullWhenAllAtLimit)
{
    RoundRobinScheduler rr;
    std::vector<std::size_t> resident(3, 2), chosen;
    EXPECT_EQ(rr.placeCtas(resident, 2, 1, chosen), 0u);
}

TEST(CtaScheduler, FactoryNames)
{
    EXPECT_EQ(makeScheduler(SchedKind::RoundRobin, 4)->name(), "RR");
    EXPECT_EQ(makeScheduler(SchedKind::PrioritySM, 4, 2)->name(),
              "PSM");
    EXPECT_EQ(schedKindName(SchedKind::PrioritySM), "PSM");
}

TEST(CtaScheduler, PlaceCtasMatchesOneCtaAtATimeScan)
{
    // placeCtas() places a batch of CTAs without rescanning the SMs per
    // CTA; the SMs it picks must be exactly those of the plain scans
    // below, one CTA at a time, RR cursor included. Random retirements
    // between calls keep the cursor moving across calls.
    std::mt19937 rng(7);
    auto below = [&rng](std::size_t n) {
        return std::size_t(rng() % n);
    };
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = 1 + below(16);
        const std::size_t tlp = 1 + below(4);
        const std::size_t allowed = 1 + below(n);
        RoundRobinScheduler rr;
        PrioritySmScheduler psm(allowed);
        std::size_t ref_cursor = 0;
        std::vector<std::size_t> rr_counts(n, 0), psm_counts(n, 0);
        for (int round = 0; round < 6; ++round) {
            const std::size_t max_ctas = below(3 * n * tlp);

            std::vector<std::size_t> want_rr, want_psm;
            std::vector<std::size_t> ref_rr = rr_counts;
            std::vector<std::size_t> ref_psm = psm_counts;
            while (want_rr.size() < max_ctas) {
                std::size_t sm = n; // none open
                for (std::size_t step = 0; step < n; ++step) {
                    const std::size_t s = (ref_cursor + step) % n;
                    if (ref_rr[s] < tlp) {
                        sm = s;
                        ref_cursor = (s + 1) % n;
                        break;
                    }
                }
                if (sm == n)
                    break;
                ++ref_rr[sm];
                want_rr.push_back(sm);
            }
            while (want_psm.size() < max_ctas) {
                std::size_t sm = 0;
                while (sm < allowed && ref_psm[sm] >= tlp)
                    ++sm;
                if (sm == allowed)
                    break;
                ++ref_psm[sm];
                want_psm.push_back(sm);
            }

            std::vector<std::size_t> got_rr, got_psm;
            EXPECT_EQ(rr.placeCtas(rr_counts, tlp, max_ctas, got_rr),
                      want_rr.size());
            EXPECT_EQ(psm.placeCtas(psm_counts, tlp, max_ctas, got_psm),
                      want_psm.size());
            ASSERT_EQ(got_rr, want_rr) << "trial " << trial;
            ASSERT_EQ(got_psm, want_psm) << "trial " << trial;
            ASSERT_EQ(rr_counts, ref_rr);
            ASSERT_EQ(psm_counts, ref_psm);

            for (std::vector<std::size_t> *counts :
                 {&rr_counts, &psm_counts})
                for (std::size_t &c : *counts)
                    c -= below(c + 1);
        }
    }
}

// ------------------------------------------------------- EnergyModel

TEST(EnergyModel, IntervalDecomposition)
{
    const GpuSpec g = k20c();
    const EnergyModel em(g);
    const EnergyBreakdown e = em.interval(2.0, 13, 1e12);
    EXPECT_NEAR(e.baseJ, g.basePowerW * 2.0, 1e-9);
    EXPECT_NEAR(e.staticJ, g.smStaticPowerW * 13 * 2.0, 1e-9);
    EXPECT_NEAR(e.dynamicJ, g.dynEnergyPerFlopJ * 1e12, 1e-9);
    EXPECT_NEAR(e.total(), e.baseJ + e.staticJ + e.dynamicJ, 1e-12);
}

TEST(EnergyModel, GatingRemovesStaticPower)
{
    const EnergyModel em(k20c());
    const EnergyBreakdown all = em.interval(1.0, 13, 0.0);
    const EnergyBreakdown two = em.interval(1.0, 2, 0.0);
    EXPECT_GT(all.total(), two.total());
    EXPECT_NEAR(all.staticJ / 13.0, two.staticJ / 2.0, 1e-9);
}

TEST(EnergyModel, AveragePower)
{
    const EnergyModel em(jetsonTx1());
    const EnergyBreakdown e = em.interval(0.5, 2, 0.0);
    EXPECT_NEAR(em.averagePowerW(e, 0.5), e.total() / 0.5, 1e-12);
}

// ------------------------------------------------------------ GpuSim

TEST(GpuSim, ExecutesAllWork)
{
    const GpuSim sim(toyGpu());
    const KernelDesc k = kernel(10);
    LaunchConfig cfg;
    cfg.tlpLimit = 2;
    const SimResult r = sim.runKernel(k, cfg);
    EXPECT_NEAR(r.flops, 10 * 1e7, 1.0);
    EXPECT_GT(r.timeS, 0.0);
}

TEST(GpuSim, TimeShrinksWithMoreParallelism)
{
    const GpuSim sim(toyGpu());
    LaunchConfig one;
    one.tlpLimit = 1;
    LaunchConfig four;
    four.tlpLimit = 4;
    const KernelDesc k = kernel(32);
    EXPECT_GT(sim.runKernel(k, one).timeS,
              sim.runKernel(k, four).timeS);
}

TEST(GpuSim, Fig7PsmMatchesRrWithHalfTheSms)
{
    // The Fig. 7 experiment: 4 CTAs, optTLP 2, 4 SMs. PSM uses two
    // SMs; RR spreads over four. Performance is nearly equal; PSM
    // powers half the SMs.
    const GpuSim sim(toyGpu());
    const KernelDesc k = kernel(4);

    LaunchConfig rr;
    rr.scheduler = SchedKind::RoundRobin;
    rr.tlpLimit = 2;
    const SimResult r_rr = sim.runKernel(k, rr);
    EXPECT_EQ(r_rr.smsUsed, 4u);
    EXPECT_EQ(r_rr.smsPowered, 4u);

    LaunchConfig psm;
    psm.scheduler = SchedKind::PrioritySM;
    psm.tlpLimit = 2;
    psm.smsAllowed = 2;
    psm.powerGateIdle = true;
    const SimResult r_psm = sim.runKernel(k, psm);
    EXPECT_EQ(r_psm.smsUsed, 2u);
    EXPECT_EQ(r_psm.smsPowered, 2u);

    // "Nearly the same performance with half the SM resources".
    EXPECT_LT(r_psm.timeS, r_rr.timeS * 2.0);
    // And less energy, since two SMs are gated.
    EXPECT_LT(r_psm.energy.staticJ / r_psm.timeS,
              r_rr.energy.staticJ / r_rr.timeS);
}

TEST(GpuSim, PsmBusyTimeConcentrated)
{
    const GpuSim sim(toyGpu());
    const KernelDesc k = kernel(8);
    LaunchConfig psm;
    psm.scheduler = SchedKind::PrioritySM;
    psm.tlpLimit = 4;
    psm.smsAllowed = 2;
    const SimResult r = sim.runKernel(k, psm);
    EXPECT_GT(r.smBusyS[0], 0.0);
    EXPECT_GT(r.smBusyS[1], 0.0);
    EXPECT_DOUBLE_EQ(r.smBusyS[2], 0.0);
    EXPECT_DOUBLE_EQ(r.smBusyS[3], 0.0);
}

TEST(GpuSim, BandwidthBoundKernelStretches)
{
    const GpuSpec tx1 = jetsonTx1();
    const GpuSim sim(tx1);
    KernelDesc k = kernel(16, 1e8, 256);
    k.bytesPerFlop = 1.0; // absurdly traffic-heavy
    LaunchConfig cfg;
    cfg.tlpLimit = 4;
    const SimResult r = sim.runKernel(k, cfg);
    const double bw_time = 16 * 1e8 * 1.0 / tx1.bandwidthBytes();
    EXPECT_GE(r.timeS, bw_time);
}

TEST(GpuSim, LaunchesScaleLinearly)
{
    const GpuSim sim(toyGpu());
    KernelDesc k1 = kernel(6);
    KernelDesc k3 = k1;
    k3.launches = 3;
    LaunchConfig cfg;
    cfg.tlpLimit = 2;
    const SimResult r1 = sim.runKernel(k1, cfg);
    const SimResult r3 = sim.runKernel(k3, cfg);
    EXPECT_NEAR(r3.timeS, 3.0 * r1.timeS, 1e-9);
    EXPECT_NEAR(r3.flops, 3.0 * r1.flops, 1.0);
    EXPECT_NEAR(r3.energy.total(), 3.0 * r1.energy.total(), 1e-9);
}

TEST(GpuSim, SequenceAccumulates)
{
    const GpuSim sim(toyGpu());
    LaunchConfig cfg;
    cfg.tlpLimit = 2;
    const SimResult a = sim.runKernel(kernel(4), cfg);
    const SimResult b = sim.runKernel(kernel(8), cfg);
    const SimResult seq =
        sim.runSequences(1, [&](std::size_t, KernelSequence &s) {
               s = {{kernel(4), cfg}, {kernel(8), cfg}};
           }).front();
    EXPECT_NEAR(seq.timeS, a.timeS + b.timeS, 1e-12);
    EXPECT_NEAR(seq.flops, a.flops + b.flops, 1.0);
}

TEST(GpuSim, FixedIntervalEnergy)
{
    const GpuSpec g = toyGpu();
    const GpuSim sim(g);
    const SimResult r = sim.fixedInterval(1.0, 2, 1e9);
    EXPECT_DOUBLE_EQ(r.timeS, 1.0);
    EXPECT_NEAR(r.energy.staticJ, 2 * g.smStaticPowerW, 1e-9);
    EXPECT_NEAR(r.energy.dynamicJ, g.dynEnergyPerFlopJ * 1e9, 1e-12);
}

TEST(GpuSim, SimMatchesAnalyticalModelRoughly)
{
    // The event-driven simulator and the closed-form kernel time
    // should agree within a modest factor on a uniform kernel.
    const GpuSpec gpu = k20c();
    const SgemmModel model(gpu, {tileByName(64, 64), 0});
    const GemmShape g{384, 169 * 32, 2304};

    KernelDesc k;
    k.name = "conv3";
    k.gridSize = model.gridSize(g);
    k.ctaWorkFlops = model.ctaWorkFlops(g);
    k.blockSize = 256;
    k.issueDensity = model.timingDensity();
    k.bytesPerFlop = model.trafficBytesPerFlop();

    LaunchConfig cfg;
    cfg.tlpLimit = model.occ().ctasPerSm;
    const GpuSim sim(gpu);
    const double t_sim = sim.runKernel(k, cfg).timeS;
    const double t_model = model.kernelTime(g);
    EXPECT_LT(t_sim, t_model * 1.5);
    EXPECT_GT(t_sim, t_model * 0.5);
}

TEST(GpuSim, NoGatingPowersWholeGpu)
{
    const GpuSim sim(toyGpu());
    const KernelDesc k = kernel(2);
    LaunchConfig cfg;
    cfg.tlpLimit = 2;
    cfg.powerGateIdle = false;
    EXPECT_EQ(sim.runKernel(k, cfg).smsPowered, 4u);
    cfg.powerGateIdle = true;
    EXPECT_LE(sim.runKernel(k, cfg).smsPowered, 2u);
}

TEST(GpuSim, RunSequencesKeysOnEveryLaunchInput)
{
    // Sequence i pairs a base launch with a variant that changes one
    // input runOneLaunch reads. A memo key missing that input would
    // hand the variant the base's result; runKernel() (no memo) says
    // what each must be.
    const GpuSim sim(toyGpu());
    KernelDesc base = kernel(10);
    LaunchConfig base_cfg;
    base_cfg.scheduler = SchedKind::PrioritySM;
    base_cfg.tlpLimit = 2;
    base_cfg.smsAllowed = 3;
    KernelSequence variants(9, {base, base_cfg});
    variants[0].first.gridSize = 11;
    variants[1].first.ctaWorkFlops = 2e7;
    variants[2].first.blockSize = 64;
    variants[3].first.issueDensity = 0.3;
    variants[4].first.bytesPerFlop = 1.0;
    variants[5].second.scheduler = SchedKind::RoundRobin;
    variants[6].second.tlpLimit = 1;
    variants[7].second.smsAllowed = 2;
    variants[8].second.powerGateIdle = true;

    const std::vector<SimResult> got = sim.runSequences(
        variants.size(), [&](std::size_t i, KernelSequence &seq) {
            seq = {{base, base_cfg}, variants[i]};
        });
    ASSERT_EQ(got.size(), variants.size());
    const SimResult alone = sim.runKernel(base, base_cfg);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        const SimResult v =
            sim.runKernel(variants[i].first, variants[i].second);
        EXPECT_FALSE(v.timeS == alone.timeS &&
                     v.smsPowered == alone.smsPowered &&
                     v.smBusyS == alone.smBusyS)
            << "variant does not change the launch";
        SimResult want;
        want.smBusyS.assign(toyGpu().numSMs, 0.0);
        want.accumulate(alone);
        want.accumulate(v);
        EXPECT_EQ(got[i].timeS, want.timeS);
        EXPECT_EQ(got[i].energy.total(), want.energy.total());
        EXPECT_EQ(got[i].smsUsed, want.smsUsed);
        EXPECT_EQ(got[i].smsPowered, want.smsPowered);
        EXPECT_EQ(got[i].smBusyS, want.smBusyS);
    }
}

// ------------------------------------------------------- Golden values
//
// Exact results (printed with %.17g, which round-trips a double) for
// launches that cover each placement corner. Any change to the event
// loop's arithmetic or to the order in which CTAs are placed shows up
// here as a failed EXPECT_EQ, not only in the benchmark digest.

struct Golden
{
    double timeS, flops, baseJ, staticJ, dynamicJ;
    std::size_t smsUsed, smsPowered;
    std::vector<double> smBusyS;
};

KernelDesc
goldenKernel(std::size_t grid, double cta_flops, std::size_t block,
             double density, double bytes_per_flop,
             std::size_t launches = 1)
{
    KernelDesc k;
    k.name = "golden";
    k.gridSize = grid;
    k.ctaWorkFlops = cta_flops;
    k.blockSize = block;
    k.issueDensity = density;
    k.bytesPerFlop = bytes_per_flop;
    k.launches = launches;
    return k;
}

void
expectGolden(const SimResult &r, const Golden &g)
{
    EXPECT_EQ(r.timeS, g.timeS);
    EXPECT_EQ(r.flops, g.flops);
    EXPECT_EQ(r.energy.baseJ, g.baseJ);
    EXPECT_EQ(r.energy.staticJ, g.staticJ);
    EXPECT_EQ(r.energy.dynamicJ, g.dynamicJ);
    EXPECT_EQ(r.smsUsed, g.smsUsed);
    EXPECT_EQ(r.smsPowered, g.smsPowered);
    EXPECT_EQ(r.smBusyS, g.smBusyS);
}

TEST(GpuSimGolden, RoundRobinCursorWraps)
{
    // 40 CTAs at TLP 3 on 13 SMs: the cursor deals three full rounds,
    // wraps, and the last CTA lands on SM 0 alone.
    LaunchConfig c;
    c.scheduler = SchedKind::RoundRobin;
    c.tlpLimit = 3;
    const SimResult r = GpuSim(k20c()).runKernel(
        goldenKernel(40, 3.3554432e7, 256, 0.5731, 0.0123), c);
    const double rest = 0.00064789527459376787;
    expectGolden(r, {0.0010878254576562798, 1342177280,
                     0.048952145594532592, 0.098992116646721459,
                     0.0201326592, 13, 13,
                     {0.0010798254576562798, rest, rest, rest, rest,
                      rest, rest, rest, rest, rest, rest, rest, rest}});
}

TEST(GpuSimGolden, PrioritySmWithinBudget)
{
    LaunchConfig c;
    c.scheduler = SchedKind::PrioritySM;
    c.tlpLimit = 2;
    c.smsAllowed = 5;
    c.powerGateIdle = true;
    const SimResult r = GpuSim(k20c()).runKernel(
        goldenKernel(23, 1.2582912e7, 128, 0.6142, 0.0311), c);
    const double w = 0.00060454051102196095;
    expectGolden(r, {0.00091481076653294135, 289406976,
                     0.041166484493982358, 0.032018376828652946,
                     0.0043411046400000002, 5, 5,
                     {0.00090681076653294137, 0.00082044783638694698,
                      w, w, w, 0, 0, 0, 0, 0, 0, 0, 0}});
}

TEST(GpuSimGolden, PartialLastWaveAboveTlpOne)
{
    // 12 slots per wave, 14 CTAs: the second wave holds two.
    LaunchConfig c;
    c.scheduler = SchedKind::PrioritySM;
    c.tlpLimit = 3;
    c.powerGateIdle = true;
    const SimResult r = GpuSim(toyGpu()).runKernel(
        goldenKernel(14, 9.4371840e6, 256, 0.4875, 0.0207), c);
    const double w = 0.00022731000462463389;
    expectGolden(r, {0.00038685000770772313, 132120576,
                     0.00077370001541544626, 0.0023211000462463388,
                     0.00092484403200000006, 4, 4,
                     {0.00037885000770772315, w, w, w}});
}

TEST(GpuSimGolden, RepeatedLaunchesScale)
{
    LaunchConfig c;
    c.scheduler = SchedKind::RoundRobin;
    c.tlpLimit = 2;
    const SimResult r = GpuSim(toyGpu()).runKernel(
        goldenKernel(7, 5.1e6, 64, 0.7013, 0.0157, 3), c);
    const double w = 0.00048795417320146806;
    expectGolden(r, {0.00051195417320146804, 107100000,
                     0.0010239083464029361, 0.0030717250392088081,
                     0.00074970000000000006, 4, 4,
                     {w, w, w, 0.00024397708660073403}});
}

TEST(GpuSimGolden, BandwidthBound)
{
    LaunchConfig c;
    c.scheduler = SchedKind::RoundRobin;
    c.tlpLimit = 4;
    const SimResult r = GpuSim(jetsonTx1()).runKernel(
        goldenKernel(16, 1e8, 256, 0.6, 1.0), c);
    const double w = 0.0052187708750835006;
    expectGolden(r, {0.062507999999999994, 1600000000,
                     0.12501599999999999, 0.18752399999999997, 0.0112,
                     2, 2, {w, w}});
}

TEST(GpuSimGolden, NoGatingPowersEverySm)
{
    LaunchConfig c;
    c.scheduler = SchedKind::PrioritySM;
    c.tlpLimit = 4;
    c.smsAllowed = 2;
    c.powerGateIdle = false;
    const SimResult r = GpuSim(toyGpu()).runKernel(
        goldenKernel(9, 2.2e7, 512, 0.5521, 0.0089), c);
    expectGolden(r, {0.00078783806773118775, 198000000,
                     0.0015756761354623755, 0.0047270284063871265,
                     0.0013860000000000001, 2, 4,
                     {0.00077983806773118777, 0.00062387045418495018, 0,
                      0}});
}

TEST(GpuSimGolden, IdealOutcomesOnSectionVcApps)
{
    // The oracle's whole tuning-path search, end to end, for the
    // three Section V.C apps on K20c and TX1.
    struct Want
    {
        GpuSpec gpu;
        AppSpec app;
        bool googlenet;
        std::size_t batch;
        double latencyS, energyPerImageJ, socScore;
    };
    const Want wants[] = {
        {k20c(), ageDetectionApp(), false, 1, 0.0032670238470799738,
         0.21818891128502721, 4.5831843337522677},
        {k20c(), videoSurveillanceApp(), true, 1, 0.0056142814907906066,
         0.38007287533202172, 2.6310743673208097},
        {k20c(), imageTaggingApp(), false, 256, 2.6430977249829302,
         0.050479984156525, 19.809831890978135},
        {jetsonTx1(), ageDetectionApp(), false, 1, 0.012619959374572023,
         0.067723992455705803, 14.7658158318714},
        {jetsonTx1(), videoSurveillanceApp(), true, 1, 0.010442924229749035,
         0.061687646513760908, 16.210701113016622},
        {jetsonTx1(), imageTaggingApp(), false, 512, 6.4047132702204435,
         0.017155798711496514, 58.289329270917356},
    };
    const NetDescriptor alex = alexNet();
    const NetDescriptor goog = googleNet();
    const IdealScheduler ideal;
    for (const Want &w : wants) {
        SCOPED_TRACE(w.gpu.name + " " + w.app.name);
        const ScheduleOutcome o = ideal.run(
            makeContext(w.app, w.googlenet ? goog : alex, w.gpu));
        EXPECT_EQ(o.batch, w.batch);
        EXPECT_EQ(o.latencyS, w.latencyS);
        EXPECT_EQ(o.energyPerImageJ, w.energyPerImageJ);
        EXPECT_EQ(o.socScore, w.socScore);
    }
}

} // namespace
} // namespace pcnn
