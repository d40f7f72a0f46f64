/**
 * @file
 * batch_offline: closed loop of whole-network Network::forwardInto
 * calls over the three mini nets at all lanes: batch 16 in fp32 and
 * int8, plus batch 1 in fp32. The tensor kernels and common/parallel
 * do nearly all the work; serve does none.
 *
 * Correctness: every forward's logits must be bitwise equal to a
 * 1-lane reference forward of the same input computed at set-up.
 * Int8 comes from calibrateQuantProfile + applyQuantProfile on a
 * second copy of each net, never from the process-wide toggle.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "common/parallel.hh"
#include "nn/model_zoo.hh"
#include "pcnn/offline/quant_profile.hh"
#include "tensor/quant.hh"
#include "tensor/tensor_ops.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr std::size_t kBigBatch = 16;
constexpr std::size_t kCalibBatch = 32;
constexpr std::size_t kInputsPerShape = 2; ///< distinct inputs cycled
constexpr std::size_t kB1PerCycle = 2;     ///< batch-1 forwards per net
constexpr std::size_t kProbeReps = 15;     ///< layer-probe repetitions
/// Statistics window: ~300 batch-1 forwards per net for each net's
/// median, ~90 beyond the pooled p90.
constexpr double kWindowS = 5.0;

/** One forward shape of one net, with its inputs and references. */
struct Case
{
    pcnn::Network *net = nullptr;
    std::string tag;            ///< "<net>.<batch>.<precision>"
    const char *span = nullptr; ///< "nn.forward.<tag>"
    std::vector<pcnn::Tensor> inputs;
    std::vector<pcnn::Tensor> want; ///< 1-lane reference logits
    pcnn::Tensor out;
    std::size_t next = 0;
};

struct NetSet
{
    std::string name;
    pcnn::Network fp32;
    pcnn::Network int8;
    Case b16fp32, b16int8, b1fp32;
};

pcnn::Network
buildNet(std::size_t kind, std::uint64_t weightSeed)
{
    pcnn::Rng rng(weightSeed);
    switch (kind) {
      case 0: return pcnn::makeMiniAlexNet(rng);
      case 1: return pcnn::makeMiniVgg(rng);
      default: return pcnn::makeMiniInception(rng);
    }
}

class BatchOffline final : public Workload
{
  public:
    explicit BatchOffline(const Options &o) : opts(o)
    {
        Tracer &t = Tracer::global();
        pcnn::Rng inputs(o.seed);
        const std::uint64_t weightSeeds[] = {101, 102, 103};
        for (std::size_t k = 0; k < 3; ++k) {
            // Two identical nets per kind: fp32 and calibrated int8.
            pcnn::Network fp = buildNet(k, weightSeeds[k]);
            pcnn::Network q = buildNet(k, weightSeeds[k]);
            const std::string name = fp.name();
            sets.push_back(std::make_unique<NetSet>(
                NetSet{name, std::move(fp), std::move(q), {}, {}, {}}));
            NetSet &s = *sets.back();
            const pcnn::Shape in = s.fp32.inputShape();

            pcnn::Rng calib(7 + k);
            const pcnn::QuantProfile profile = pcnn::calibrateQuantProfile(
                s.int8, randomInput(calib, in, kCalibBatch));
            pcnn::applyQuantProfile(s.int8, profile, true);

            initCase(s.b16fp32, s.fp32, name + ".b16.fp32", inputs, kBigBatch);
            initCase(s.b16int8, s.int8, name + ".b16.int8", inputs, kBigBatch);
            initCase(s.b1fp32, s.fp32, name + ".b1.fp32", inputs, 1);
            warmupSpan.push_back(t.intern("nn.warmup." + name));
            oneLaneSpan.push_back(
                t.intern("nn.forward." + s.b16fp32.tag + ".1lane"));
        }

        // References under one lane. The first forward of each net is
        // its warm-up (lazy graph compile, panel packing).
        {
            pcnn::ScopedLaneLimit one(1);
            for (std::size_t k = 0; k < sets.size(); ++k) {
                NetSet &s = *sets[k];
                {
                    ScopedSpan w(warmupSpan[k]);
                    referenceFor(s.b16fp32);
                }
                referenceFor(s.b16int8);
                referenceFor(s.b1fp32);
            }
        }
        // One all-lane pass grows every buffer to its steady size.
        for (auto &s : sets)
            for (Case *c : {&s->b16fp32, &s->b16int8, &s->b1fp32})
                for (std::size_t i = 0; i < c->inputs.size(); ++i)
                    c->net->forwardInto(c->inputs[i], false, c->out);
    }

    LoopResult
    run(double seconds) override
    {
        LoopResult r;
        r.windowS = kWindowS;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < seconds || r.attempted == 0) {
            // Kinds are nets: each net weighs the same in every metric.
            for (std::size_t k = 0; k < sets.size(); ++k) {
                NetSet &s = *sets[k];
                double at = secondsSince(t0);
                double dt = forward(s.b16fp32, r);
                r.work.push_back({at, double(kBigBatch), dt, k});
                at = secondsSince(t0);
                dt = forward(s.b16int8, r);
                r.work2.push_back({at, double(kBigBatch), dt, k});
                for (std::size_t i = 0; i < kB1PerCycle; ++i) {
                    at = secondsSince(t0);
                    r.latencies.push_back({at, forward(s.b1fp32, r), k});
                }
            }
        }
        r.spanS = secondsSince(t0);
        r.correct = r.failed == 0;
        sent += r.attempted;
        mismatched += r.failed;
        return r;
    }

    void
    layerMetrics(Metrics &out) override
    {
        Tracer &t = Tracer::global();
        for (std::size_t k = 0; k < sets.size(); ++k) {
            NetSet &s = *sets[k];
            for (const Case *c : {&s.b16fp32, &s.b16int8, &s.b1fp32})
                out.push_back({"nn.forward_ms." + c->tag, "ms",
                               median(t.durations(c->span)) * 1e3});
            out.push_back({"nn.warmup_ms." + s.name, "ms",
                           median(t.durations(warmupSpan[k])) * 1e3});
        }
        // common/parallel's cost inside the forward: the same b16 fp32
        // forward with the pool capped to one lane.
        {
            pcnn::ScopedLaneLimit one(1);
            for (std::size_t k = 0; k < sets.size(); ++k) {
                Case &c = sets[k]->b16fp32;
                for (std::size_t i = 0; i < kProbeReps; ++i) {
                    ScopedSpan sp(oneLaneSpan[k]);
                    c.net->forwardInto(c.inputs[i % c.inputs.size()], false,
                                       c.out);
                }
                out.push_back({"nn.forward_ms." + c.tag + ".1lane", "ms",
                               median(t.durations(oneLaneSpan[k])) * 1e3});
            }
        }
        convGemmProbe(out);
    }

    std::vector<std::string>
    accounting() const override
    {
        char line[160];
        std::snprintf(line, sizeof line,
                      "batch_offline forwards: sent %llu, succeeded %llu, "
                      "bitwise mismatches %llu",
                      static_cast<unsigned long long>(sent),
                      static_cast<unsigned long long>(sent - mismatched),
                      static_cast<unsigned long long>(mismatched));
        return {line};
    }

    Metrics
    namedMetrics(const LoopResult &r, double tailQ) const override
    {
        const LoopStats s = loopStats(r, tailQ);
        return {{"fp32_b16_img_per_s", "1/s", s.throughput},
                {"int8_b16_img_per_s", "1/s", s.throughput2},
                {"b1_p50_ms", "ms", s.p50S * 1e3}};
    }

  private:
    void
    initCase(Case &c, pcnn::Network &net, const std::string &tag,
             pcnn::Rng &rng, std::size_t batch)
    {
        c.net = &net;
        c.tag = tag;
        c.span = Tracer::global().intern("nn.forward." + tag);
        for (std::size_t i = 0; i < kInputsPerShape; ++i)
            c.inputs.push_back(randomInput(rng, net.inputShape(), batch));
    }

    void
    referenceFor(Case &c)
    {
        for (const pcnn::Tensor &x : c.inputs) {
            pcnn::Tensor want;
            c.net->forwardInto(x, false, want);
            if (opts.plantMismatch)
                plantBitFlip(want);
            c.want.push_back(std::move(want));
        }
    }

    /** One timed, checked forward; returns its wall time. */
    double
    forward(Case &c, LoopResult &r)
    {
        const std::size_t i = c.next;
        c.next = (c.next + 1) % c.inputs.size();
        const auto t0 = Clock::now();
        {
            ScopedSpan s(c.span);
            c.net->forwardInto(c.inputs[i], false, c.out);
        }
        const double dt = secondsSince(t0);
        ++r.attempted;
        if (!bitwiseEqual(c.out, c.want[i]))
            ++r.failed;
        return dt;
    }

    /**
     * tensor layer: sgemm and qgemm over every conv GEMM shape of the
     * three nets at batch 16, shapes taken from describe().
     */
    void
    convGemmProbe(Metrics &out)
    {
        struct Gemm
        {
            pcnn::GemmShape shape;
            std::vector<float> a, b, c;
            pcnn::QuantizedPanel qa;
            std::vector<std::uint8_t> qb;
            pcnn::QuantParams bq;
        };
        std::vector<Gemm> gemms;
        double flops = 0.0, mbF32 = 0.0, mbI8 = 0.0;
        pcnn::Rng rng(opts.seed + 17);
        for (auto &s : sets) {
            for (const pcnn::ConvSpec &cs : pcnn::describe(s->fp32).convs) {
                for (std::size_t g = 0; g < cs.gemmCount(); ++g) {
                    Gemm gm;
                    gm.shape = cs.gemmShape(kBigBatch);
                    const std::size_t m = gm.shape.m, n = gm.shape.n,
                                      k = gm.shape.k;
                    gm.a.resize(m * k);
                    gm.b.resize(k * n);
                    gm.c.resize(m * n);
                    for (float &v : gm.a)
                        v = float(rng.uniform(-1.0, 1.0));
                    for (float &v : gm.b)
                        v = float(rng.uniform(0.0, 1.0));
                    pcnn::quantizeWeights(m, k, gm.a.data(), gm.qa);
                    gm.bq = pcnn::computeQuantParams(gm.b.data(), k * n);
                    pcnn::quantizePackActivations(gm.b.data(), k, n, n,
                                                  false, gm.bq, gm.qb);
                    flops += gm.shape.flops();
                    mbF32 += double(m * k + k * n + m * n) * 4.0 / 1e6;
                    mbI8 += (double(m * k + k * n) + double(m * n) * 4.0) / 1e6;
                    gemms.push_back(std::move(gm));
                }
            }
        }
        for (std::size_t i = 0; i < kProbeReps; ++i) {
            {
                ScopedSpan s("tensor.conv_gemm.fp32");
                for (Gemm &g : gemms)
                    pcnn::sgemm(false, false, g.shape.m, g.shape.n,
                                g.shape.k, g.a.data(), g.b.data(),
                                g.c.data());
            }
            {
                ScopedSpan s("tensor.conv_gemm.int8");
                for (Gemm &g : gemms)
                    pcnn::qgemm(g.shape.m, g.shape.n, g.shape.k, g.qa,
                                g.qb.data(), g.bq, g.c.data(), nullptr,
                                false);
            }
        }
        Tracer &t = Tracer::global();
        out.push_back({"tensor.conv_gemm_ms.fp32", "ms",
                       median(t.durations("tensor.conv_gemm.fp32")) * 1e3});
        out.push_back({"tensor.conv_gemm_ms.int8", "ms",
                       median(t.durations("tensor.conv_gemm.int8")) * 1e3});
        out.push_back({"tensor.conv_gemm_gflop", "GFLOP", flops / 1e9});
        out.push_back({"tensor.conv_gemm_mb.fp32", "MB", mbF32});
        out.push_back({"tensor.conv_gemm_mb.int8", "MB", mbI8});
    }

    Options opts;
    std::vector<std::unique_ptr<NetSet>> sets;
    std::vector<const char *> warmupSpan;
    std::vector<const char *> oneLaneSpan;
    std::uint64_t sent = 0;
    std::uint64_t mismatched = 0;
};

} // namespace

std::unique_ptr<Workload>
makeBatchOffline(const Options &opts)
{
    return std::make_unique<BatchOffline>(opts);
}

} // namespace perfbench
