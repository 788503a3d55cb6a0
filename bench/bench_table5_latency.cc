// Regenerates Table V: encoder/decoder latency of RNN / GRU / Transformer
// components under the paper's measurement setup — beam width 3, one layer,
// vocabulary 3,000, maximum 15 decode steps, CPU.
//
// Paper numbers (ms): encoder RNN 6 / GRU 9 / Transformer 3.5;
//                     decoder RNN 30 / GRU 35 / Transformer 67.5.
// Shape to reproduce: the transformer ENCODER is competitive (one parallel
// pass over the tokens) while the transformer DECODER is the bottleneck
// (self-attention over all generated tokens at every step).
//
// The library's transformer Step keeps a K/V cache and runs the decoder on
// the new token alone (BM_DecoderTransformer). The paper's cost profile,
// the decoder re-run over the whole prefix at every step, is timed by
// BM_DecoderTransformerPrefixRerun through the teacher-forced Forward;
// each of its calls also runs the encoder once.

#include <benchmark/benchmark.h>

#include "nmt/hybrid.h"
#include "nmt/rnn.h"
#include "nmt/transformer.h"
#include "text/vocabulary.h"

namespace {

using namespace cyqr;

constexpr int64_t kVocab = 3000;
constexpr int64_t kSeqLen = 15;
constexpr int64_t kBeam = 3;
constexpr int64_t kDecodeSteps = 15;

Seq2SeqConfig TableVConfig() {
  Seq2SeqConfig config;
  config.vocab_size = kVocab;
  config.d_model = 64;
  config.num_heads = 2;
  config.ff_hidden = 128;
  config.num_layers = 1;
  config.dropout = 0.0f;
  return config;
}

std::vector<int32_t> SourceTokens() {
  std::vector<int32_t> src(kSeqLen);
  for (int64_t i = 0; i < kSeqLen; ++i) {
    src[i] = static_cast<int32_t>(kNumSpecialTokens + i);
  }
  return src;
}

// --------------------------- Encoders ------------------------------------

void BM_EncoderRnn(benchmark::State& state) {
  Rng rng(1);
  RnnEncoder encoder(TableVConfig(), CellType::kRnn, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).outputs.data());
  }
}
BENCHMARK(BM_EncoderRnn)->Unit(benchmark::kMillisecond);

void BM_EncoderGru(benchmark::State& state) {
  Rng rng(2);
  RnnEncoder encoder(TableVConfig(), CellType::kGru, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).outputs.data());
  }
}
BENCHMARK(BM_EncoderGru)->Unit(benchmark::kMillisecond);

void BM_EncoderLstm(benchmark::State& state) {
  Rng rng(7);
  RnnEncoder encoder(TableVConfig(), CellType::kLstm, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).outputs.data());
  }
}
BENCHMARK(BM_EncoderLstm)->Unit(benchmark::kMillisecond);

void BM_EncoderTransformer(benchmark::State& state) {
  Rng rng(3);
  TransformerEncoder encoder(TableVConfig(), rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).data());
  }
}
BENCHMARK(BM_EncoderTransformer)->Unit(benchmark::kMillisecond);

// --------------------------- Decoders ------------------------------------
// Each decoder benchmark measures a full beam-3, 15-step decode, excluding
// the encoder (states are prepared per iteration but encoding is the same
// tiny cost for all variants).

template <typename ModelT>
void RunBeamDecode(const ModelT& model, benchmark::State& state) {
  NoGradGuard no_grad;
  const std::vector<int32_t> src = SourceTokens();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<DecodeState>> beam;
    for (int64_t b = 0; b < kBeam; ++b) {
      beam.push_back(model.StartDecode(src));
    }
    state.ResumeTiming();
    int32_t token = kBosId;
    for (int64_t step = 0; step < kDecodeSteps; ++step) {
      for (int64_t b = 0; b < kBeam; ++b) {
        const std::vector<float> logits = model.Step(*beam[b], token);
        benchmark::DoNotOptimize(logits.data());
        token = static_cast<int32_t>(kNumSpecialTokens +
                                     (step % (kVocab / 2)));
      }
    }
  }
}

void BM_DecoderRnn(benchmark::State& state) {
  Rng rng(4);
  RnnSeq2Seq model(TableVConfig(), CellType::kRnn, CellType::kRnn,
                   AttentionKind::kDot, rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderRnn)->Unit(benchmark::kMillisecond);

void BM_DecoderGru(benchmark::State& state) {
  Rng rng(5);
  RnnSeq2Seq model(TableVConfig(), CellType::kGru, CellType::kGru,
                   AttentionKind::kDot, rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderGru)->Unit(benchmark::kMillisecond);

void BM_DecoderLstm(benchmark::State& state) {
  Rng rng(8);
  RnnSeq2Seq model(TableVConfig(), CellType::kLstm, CellType::kLstm,
                   AttentionKind::kDot, rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderLstm)->Unit(benchmark::kMillisecond);

void BM_DecoderTransformer(benchmark::State& state) {
  Rng rng(6);
  TransformerSeq2Seq model(TableVConfig(), rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderTransformer)->Unit(benchmark::kMillisecond);

void BM_DecoderTransformerPrefixRerun(benchmark::State& state) {
  Rng rng(6);
  TransformerSeq2Seq model(TableVConfig(), rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    // The work of RunBeamDecode's kBeam hypotheses over kDecodeSteps
    // steps, each step re-running Forward over the whole prefix so far.
    std::vector<int32_t> prefix;
    int32_t token = kBosId;
    for (int64_t step = 0; step < kDecodeSteps; ++step) {
      prefix.push_back(token);
      const EncodedBatch tgt_in = PadBatch({prefix});
      for (int64_t b = 0; b < kBeam; ++b) {
        benchmark::DoNotOptimize(model.Forward(src, tgt_in).data());
      }
      token = static_cast<int32_t>(kNumSpecialTokens + (step % (kVocab / 2)));
    }
  }
}
BENCHMARK(BM_DecoderTransformerPrefixRerun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
