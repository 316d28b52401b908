// bwfft_lint — static verification sweep over the planner's whole grid.
//
// For each representative transform shape this tool:
//   1. symbolically verifies every candidate the tuner would consider
//      (tune::enumerate_candidates x all engines): per-thread store
//      windows pairwise disjoint and jointly covering, NT-store/fence
//      pairing, double-buffer epoch aliasing, stage-to-stage element
//      conservation — all by interval algebra, nothing executes;
//   2. audits the Table II schedule for every distinct role split the
//      grid produces: analysis::audit_schedule, the checker the engines'
//      self-check runs, over the trace make_table2_trace() emits;
//   3. runs the SPL static verifier over the expression trees and
//      lowered programs of the shape's algorithm variants: the pencil,
//      transposed, slab-pencil and rotated forms, the L and K
//      permutations (also probed for permutation-ness), the two-socket
//      form where 2 divides k and n, and the 1D four-step term of the
//      shape's total size. Blocked terms run at every rotation packet
//      the grid's plans resolve to (plan_stages(...).mu), the packets
//      the engines actually run.
//
// `--inject MODE` seeds one deliberate defect into an otherwise valid
// model or trace and exits nonzero ONLY IF the static pass or the
// schedule audit catches it — the CI wiring marks those invocations as
// must-fail, so a verifier that goes blind turns the build red.
//
// Exit codes: 0 = everything proven clean, 1 = violations (or an inject
// that was caught — the expected outcome under --inject), 2 = usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "analysis/hazard_checker.h"
#include "analysis/static_verify.h"
#include "benchutil/args.h"
#include "common/types.h"
#include "fft/options.h"
#include "fft/stage.h"
#include "parallel/roles.h"
#include "spl/algorithms.h"
#include "spl/lower.h"
#include "spl/verify.h"
#include "tune/candidates.h"

using namespace bwfft;

namespace {

struct LintOptions {
  std::vector<std::vector<idx_t>> dims_list;
  int threads = 8;  // fixed default: the sweep must not depend on the host
  std::string inject;
  bool verbose = false;
};

struct LintTally {
  int configs_verified = 0;
  int configs_skipped = 0;
  int schedules_verified = 0;
  int spl_verified = 0;
  int violations = 0;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: bwfft_lint [--dims AxB[xC]]... [--threads N] [-v|--verbose]\n"
      "                  [--inject MODE]\n"
      "  Statically verifies every tuner candidate at the given shapes\n"
      "  (default: 64x64x64 32x64x128 48x48x48 256x256).\n"
      "  MODE: store-overlap | store-gap | missing-fence | epoch-alias |\n"
      "        schedule-half | schedule-dup  (seeded defect; exit 1 =\n"
      "        caught, the expected outcome)\n");
  return 2;
}

std::string dims_str(const std::vector<idx_t>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    s += (i ? "x" : "") + std::to_string(dims[i]);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Leg 1+2: the tuner grid, engine models, and schedule audit.
// ---------------------------------------------------------------------------

/// Verifies the grid of `dims` and returns the distinct rotation packets
/// its plans resolve to, for the SPL leg's blocked terms.
std::set<idx_t> lint_grid(const std::vector<idx_t>& dims,
                          const LintOptions& opt, LintTally* tally) {
  FftOptions req;
  req.threads = opt.threads;
  const auto grid = tune::enumerate_candidates(dims, req);

  std::set<idx_t> packets;
  std::set<int> splits_seen;
  for (const auto& c : grid) {
    const FftOptions opts = tune::apply_candidate(c, req);
    const StagePlan plan = plan_stages(dims, opts);
    if (plan.ok()) packets.insert(plan.mu);
    analysis::PlanModel model;
    std::string why;
    if (!analysis::build_plan_model(dims, opts, &model, &why)) {
      ++tally->configs_skipped;
      if (opt.verbose) {
        std::printf("  skip  %s %s: %s\n", dims_str(dims).c_str(),
                    tune::candidate_label(c).c_str(), why.c_str());
      }
      continue;
    }
    const analysis::StaticReport rep = analysis::verify_plan(model);
    if (!rep.ok()) {
      std::printf("FAIL  %s\n%s\n", model.label().c_str(), rep.str().c_str());
      tally->violations += static_cast<int>(rep.issues.size());
    } else {
      ++tally->configs_verified;
      if (opt.verbose) {
        std::printf("  ok    %s (%zu proofs)\n", model.label().c_str(),
                    rep.checks);
      }
    }

    // Schedule leg: one audit per distinct role split the grid produces
    // (the schedule depends only on the split, not on block/packet knobs).
    if (c.engine != EngineKind::DoubleBuffer) continue;
    const int pc = resolve_role_counts(opts).compute;
    if (!splits_seen.insert(pc).second) continue;
    const RolePlan roles = make_role_plan(opt.threads, pc, req.topo);
    for (idx_t iters : {idx_t{1}, idx_t{2}, idx_t{5}, idx_t{8}}) {
      const analysis::HazardReport rep = analysis::audit_schedule(
          analysis::make_table2_trace(iters, roles), iters, roles);
      if (!rep.clean()) {
        std::printf("FAIL  schedule p=%d pc=%d iters=%lld\n%s\n",
                    opt.threads, pc, static_cast<long long>(iters),
                    rep.str().c_str());
        ++tally->violations;
      } else {
        ++tally->schedules_verified;
      }
    }
  }
  return packets;
}

// ---------------------------------------------------------------------------
// Leg 3: SPL expression trees and lowered programs.
// ---------------------------------------------------------------------------

/// Verify one term's tree and lowered program; `perm` also probes that
/// the term is a permutation (the L and K operators).
void lint_one_term(const std::string& name, const spl::ExprPtr& term,
                   bool perm, const LintOptions& opt, LintTally* tally) {
  const spl::VerifyReport tr = spl::verify(*term);
  if (!tr.ok()) {
    std::printf("FAIL  spl term %s\n%s\n", name.c_str(), tr.str().c_str());
    tally->violations += static_cast<int>(tr.issues.size());
    return;
  }
  if (perm && !spl::is_permutation(*term)) {
    std::printf("FAIL  spl term %s: not a permutation\n", name.c_str());
    ++tally->violations;
    return;
  }
  const spl::Program prog = spl::lower(*term);
  const spl::VerifyReport pr = spl::verify(prog);
  if (!pr.ok()) {
    std::printf("FAIL  spl program %s\n%s\n", name.c_str(),
                pr.str().c_str());
    tally->violations += static_cast<int>(pr.issues.size());
    return;
  }
  ++tally->spl_verified;
  if (opt.verbose) {
    std::printf("  ok    spl %s (%zu + %zu nodes)\n", name.c_str(), tr.nodes,
                pr.nodes);
  }
}

void lint_spl(const std::vector<idx_t>& dims, const std::set<idx_t>& packets,
              const LintOptions& opt, LintTally* tally) {
  auto term = [&](const std::string& name, const spl::ExprPtr& e,
                  bool perm = false) {
    lint_one_term(name, e, perm, opt, tally);
  };
  if (dims.size() == 2) {
    const idx_t n = dims[0], m = dims[1];
    term("dft2d_pencil", spl::dft2d_pencil(n, m));
    term("dft2d_transposed", spl::dft2d_transposed(n, m));
    term("stride_perm", spl::stride_perm(n * m, m), true);
    for (idx_t mu : packets) {
      const std::string at = " mu=" + std::to_string(mu);
      term("dft2d_blocked" + at, spl::dft2d_blocked(n, m, mu));
    }
  } else {
    const idx_t k = dims[0], n = dims[1], m = dims[2];
    term("dft3d_pencil", spl::dft3d_pencil(k, n, m));
    term("dft3d_slab_pencil", spl::dft3d_slab_pencil(k, n, m));
    term("rotation_k", spl::rotation_k(k, n, m), true);
    for (idx_t mu : packets) {
      const std::string at = " mu=" + std::to_string(mu);
      term("rotation_k_blocked" + at, spl::rotation_k_blocked(k, n, m, mu),
           true);
      term("dft3d_rotated" + at, spl::dft3d_rotated(k, n, m, mu));
      if (k % 2 == 0 && n % 2 == 0) {
        term("dft3d_dual_socket sk=2" + at,
             spl::dft3d_dual_socket(k, n, m, mu, 2));
      }
    }
  }
  // The four-step 1D term of the total size, at its near-square split.
  idx_t total = 1;
  for (idx_t d : dims) total *= d;
  idx_t a = 1;
  for (idx_t d = 2; d * d <= total; ++d) {
    if (total % d == 0) a = d;
  }
  term("dft1d_four_step", spl::dft1d_four_step(a, total / a));
}

// ---------------------------------------------------------------------------
// --inject: seed one defect; exit 1 only when the verifiers catch it.
// ---------------------------------------------------------------------------

/// A valid double-buffer model to corrupt: first default-config DB
/// candidate of the first shape. Dies if the model cannot be built — the
/// inject harness needs a working baseline.
bool inject_base_model(const LintOptions& opt, analysis::PlanModel* model) {
  FftOptions req;
  req.threads = opt.threads;
  req.engine = EngineKind::DoubleBuffer;
  std::string why;
  if (!analysis::build_plan_model(opt.dims_list.front(), req, model, &why)) {
    std::fprintf(stderr, "inject: cannot build baseline model: %s\n",
                 why.c_str());
    return false;
  }
  return true;
}

/// First stage with at least two store windows (every representative
/// shape has one; parts >= 2 needs threads >= 4 for the default split).
analysis::StageModel* corruptible_stage(analysis::PlanModel* model) {
  for (auto& st : model->stages) {
    if (st.stores.size() >= 2) return &st;
  }
  return nullptr;
}

int run_inject(const LintOptions& opt) {
  const std::string& mode = opt.inject;
  if (mode == "store-overlap" || mode == "store-gap" ||
      mode == "missing-fence" || mode == "epoch-alias") {
    analysis::PlanModel model;
    if (!inject_base_model(opt, &model)) return 2;
    analysis::StageModel* st = corruptible_stage(&model);
    if (st == nullptr) {
      std::fprintf(stderr, "inject: no stage with >= 2 store windows\n");
      return 2;
    }
    if (mode == "store-overlap") {
      // Rank 1 rewrites rank 0's window: overlap AND a gap where rank 1
      // should have written.
      st->stores[1].iv = st->stores[0].iv;
    } else if (mode == "store-gap") {
      st->stores.pop_back();
    } else if (mode == "missing-fence") {
      if (!st->nt_store) {
        std::fprintf(stderr, "inject: baseline stage is not NT\n");
        return 2;
      }
      st->fence_before_publish = false;
    } else {  // epoch-alias
      if (st->buf_loads.size() < 2) {
        std::fprintf(stderr, "inject: baseline stage is not pipelined with"
                             " >= 2 data ranks\n");
        return 2;
      }
      // Rank 1's load window collides with rank 0's pending store.
      st->buf_loads[1].iv = st->buf_stores[0].iv;
    }
    const analysis::StaticReport rep = analysis::verify_plan(model);
    std::printf("inject %s on %s:\n%s\n", mode.c_str(),
                model.label().c_str(), rep.str().c_str());
    if (rep.ok()) {
      std::printf("inject %s: NOT CAUGHT — the static pass is blind\n",
                  mode.c_str());
      return 0;  // must-fail CI wiring turns this into a red build
    }
    std::printf("inject %s: caught (%zu issues)\n", mode.c_str(),
                rep.issues.size());
    return 1;
  }

  if (mode == "schedule-half" || mode == "schedule-dup") {
    // A split with data threads: the Table II schedule, not the degraded
    // sequential one.
    FftOptions req;
    req.threads = opt.threads;
    const RolePlan roles = make_role_plan(
        opt.threads, resolve_role_counts(req).compute, req.topo);
    if (roles.data == 0) {
      std::fprintf(stderr, "inject: need a split with data threads\n");
      return 2;
    }
    const idx_t iters = 4;
    analysis::Trace trace = analysis::make_table2_trace(iters, roles);
    if (mode == "schedule-half") {
      trace.front().half ^= 1;
    } else {
      trace.push_back(trace.front());
    }
    const analysis::HazardReport rep =
        analysis::audit_schedule(trace, iters, roles);
    std::printf("inject %s: %s\n%s\n", mode.c_str(),
                rep.clean() ? "NOT CAUGHT — the schedule audit is blind"
                            : "caught",
                rep.str().c_str());
    // A miss exits 0 and fails the must-fail CI assertion.
    return rep.clean() ? 0 : 1;
  }

  std::fprintf(stderr, "unknown inject mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LintOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--dims") && i + 1 < argc) {
      std::vector<idx_t> d;
      std::string err;
      if (!cli::parse_dims(argv[++i], &d, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return usage();
      }
      if (d.size() != 2 && d.size() != 3) return usage();
      opt.dims_list.push_back(std::move(d));
    } else if (!std::strcmp(a, "--threads") && i + 1 < argc) {
      opt.threads = std::atoi(argv[++i]);
      if (opt.threads < 1) return usage();
    } else if (!std::strcmp(a, "--inject") && i + 1 < argc) {
      opt.inject = argv[++i];
    } else if (!std::strcmp(a, "-v") || !std::strcmp(a, "--verbose")) {
      opt.verbose = true;
    } else {
      return usage();
    }
  }
  if (opt.dims_list.empty()) {
    opt.dims_list = {{64, 64, 64}, {32, 64, 128}, {48, 48, 48}, {256, 256}};
  }

  if (!opt.inject.empty()) return run_inject(opt);

  LintTally tally;
  for (const auto& dims : opt.dims_list) {
    std::printf("lint %s (threads=%d)\n", dims_str(dims).c_str(),
                opt.threads);
    lint_spl(dims, lint_grid(dims, opt, &tally), opt, &tally);
  }
  std::printf(
      "bwfft_lint: %d configurations proven, %d skipped, %d schedule "
      "traces audited, %d SPL terms verified\n",
      tally.configs_verified, tally.configs_skipped,
      tally.schedules_verified, tally.spl_verified);
  if (tally.violations > 0) {
    std::printf("bwfft_lint: FAIL (%d violations)\n", tally.violations);
    return 1;
  }
  std::printf("bwfft_lint: CLEAN\n");
  return 0;
}
