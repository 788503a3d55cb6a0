#include "decode/beam.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/check.h"
#include "core/math.h"
#include "text/vocabulary.h"

namespace cyqr {

namespace {

struct Hypothesis {
  std::unique_ptr<DecodeState> state;  // Null once finished.
  std::vector<int32_t> ids;
  double log_prob = 0.0;
  int32_t last_token = kBosId;
  bool finished = false;
};

}  // namespace

std::vector<DecodedSequence> BeamSearchDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options) {
  NoGradGuard no_grad;
  CYQR_CHECK_GT(options.beam_size, 0);
  const size_t beam_size = static_cast<size_t>(options.beam_size);

  std::vector<Hypothesis> beam;
  {
    Hypothesis root;
    root.state = model.StartDecode(src_ids);
    beam.push_back(std::move(root));
  }
  std::vector<Hypothesis> finished;

  for (int64_t t = 0; t < options.max_len && !beam.empty(); ++t) {
    // Budget check once per step: an expired deadline stops expansion and
    // falls through to ranking whatever has been decoded so far.
    if (options.deadline != nullptr && options.deadline->Expired()) break;
    struct Expansion {
      size_t parent;
      int32_t token;
      double log_prob;
    };
    std::vector<Expansion> expansions;
    for (size_t i = 0; i < beam.size(); ++i) {
      const std::vector<float> logits =
          model.Step(*beam[i].state, beam[i].last_token);
      const std::vector<float> lp =
          decode_internal::StepLogProbs(logits, /*allow_eos=*/t > 0);
      const std::vector<size_t> top =
          TopKIndices(lp.data(), lp.size(), beam_size);
      for (size_t j : top) {
        expansions.push_back(
            {i, static_cast<int32_t>(j), beam[i].log_prob + lp[j]});
      }
    }
    std::sort(expansions.begin(), expansions.end(),
              [](const Expansion& a, const Expansion& b) {
                return a.log_prob > b.log_prob;
              });
    std::vector<Hypothesis> next;
    for (const Expansion& e : expansions) {
      if (next.size() + finished.size() >= beam_size &&
          next.size() >= beam_size) {
        break;
      }
      Hypothesis h;
      h.ids = beam[e.parent].ids;
      h.log_prob = e.log_prob;
      if (e.token == kEosId) {
        h.finished = true;
        finished.push_back(std::move(h));
        continue;
      }
      if (next.size() >= beam_size) continue;
      h.ids.push_back(e.token);
      h.last_token = e.token;
      h.state = beam[e.parent].state->Clone();
      next.push_back(std::move(h));
    }
    beam = std::move(next);
    // Stop early once enough hypotheses have finished and no live
    // hypothesis can beat the worst finished score (scores only decrease).
    // `beam` already holds this step's live set, so the fill-in below never
    // appends the previous step's prefixes: lacking the end-of-sequence
    // term, those would outscore the finished hypotheses they spawned.
    if (finished.size() >= beam_size) {
      double best_live = -1e300;
      for (const Hypothesis& h : beam) {
        best_live = std::max(best_live, h.log_prob);
      }
      double worst_finished = 1e300;
      for (const Hypothesis& h : finished) {
        worst_finished = std::min(worst_finished, h.log_prob);
      }
      if (best_live <= worst_finished) break;
    }
  }
  // Unfinished hypotheses fill remaining slots.
  for (Hypothesis& h : beam) finished.push_back(std::move(h));

  std::vector<DecodedSequence> out;
  out.reserve(finished.size());
  for (Hypothesis& h : finished) {
    out.push_back({std::move(h.ids), h.log_prob});
  }
  if (options.length_penalty > 0.0f) {
    // GNMT-style length normalization of the final ranking; reported
    // log_prob stays the raw model score.
    const double alpha = options.length_penalty;
    auto normalized = [alpha](const DecodedSequence& s) {
      const double denom =
          std::pow((5.0 + static_cast<double>(s.ids.size())) / 6.0, alpha);
      return s.log_prob / denom;
    };
    std::sort(out.begin(), out.end(),
              [&normalized](const DecodedSequence& a,
                            const DecodedSequence& b) {
                return normalized(a) > normalized(b);
              });
    if (out.size() > beam_size) out.resize(beam_size);
    return out;
  }
  decode_internal::SortAndTrim(&out, beam_size);
  return out;
}

}  // namespace cyqr
