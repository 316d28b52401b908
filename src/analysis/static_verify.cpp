#include "analysis/static_verify.h"

#include <algorithm>
#include <sstream>

#include "fft/stage.h"
#include "kernels/twiddle.h"
#include "parallel/team.h"

namespace bwfft::analysis {

namespace {

const char* issue_kind_name(StaticIssue::Kind k) {
  switch (k) {
    case StaticIssue::Kind::PartitionOverlap: return "partition-overlap";
    case StaticIssue::Kind::PartitionGap: return "partition-gap";
    case StaticIssue::Kind::OutOfBounds: return "out-of-bounds";
    case StaticIssue::Kind::NotConservative: return "not-conservative";
    case StaticIssue::Kind::MissingFence: return "missing-fence";
    case StaticIssue::Kind::EpochAlias: return "epoch-alias";
    case StaticIssue::Kind::BadModel: return "bad-model";
  }
  return "?";
}

void add_issue(StaticReport& rep, StaticIssue::Kind kind, std::string stage,
               std::string detail) {
  rep.issues.push_back({kind, std::move(stage), std::move(detail)});
}

/// Decode the owner tag (iter * parts + rank) for violation messages.
std::string owner_str(int owner, int parts) {
  if (owner < 0 || parts < 1) return "?";
  std::ostringstream os;
  os << "iter " << owner / parts << " rank " << owner % parts;
  return os.str();
}

/// True when two strided windows share any element. Expands the smaller
/// run list and tests each run against the other interval's arithmetic —
/// the buffer windows this guards are one or two runs each.
bool windows_overlap(const StridedInterval& a, const StridedInterval& b) {
  if (a.elems() <= 0 || b.elems() <= 0) return false;
  for (idx_t i = 0; i < a.count; ++i) {
    const idx_t ab = a.begin + i * a.stride;
    const idx_t ae = ab + a.width;
    for (idx_t j = 0; j < b.count; ++j) {
      const idx_t bb = b.begin + j * b.stride;
      if (ab < bb + b.width && bb < ae) return true;
    }
  }
  return false;
}

/// The load of rows [r0, r1) of block `i` reads a contiguous row range of
/// the input; the rotated store scatters one mu-packet of each of those
/// rows every rows*mu elements of the output (rotate_store_rows: row r
/// packet p lands at out[(p*(a*b) + r) * mu]).
StridedInterval rotated_store_window(const StageGeometry& g, idx_t first_row,
                                     idx_t nrows) {
  return {first_row * g.mu, nrows * g.mu, g.rows() * g.mu, g.cp()};
}

void build_tiled_stage(const StageGeometry& g, idx_t total, int parts,
                       idx_t block_rows, bool pipelined, bool nt,
                       const std::string& name, StageModel* out) {
  const idx_t row_elems = g.row_elems();
  StageModel st;
  st.name = name;
  st.in_elems = total;
  st.out_elems = total;
  st.iterations = g.rows() / block_rows;
  st.parts = parts;
  st.nt_store = nt;
  st.fence_before_publish = true;  // pipeline fences every store step
  st.pipelined = pipelined;
  st.buf_elems = block_rows * row_elems;
  for (idx_t i = 0; i < st.iterations; ++i) {
    for (int d = 0; d < parts; ++d) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, d);
      if (r1 <= r0) continue;
      const int owner = static_cast<int>(i) * parts + d;
      const idx_t row = i * block_rows + r0;
      st.loads.push_back(
          {owner, StridedInterval::contiguous(row * row_elems,
                                              (r1 - r0) * row_elems)});
      st.stores.push_back({owner, rotated_store_window(g, row, r1 - r0)});
      if (pipelined && i == 0) {
        // Per-rank buffer windows are iteration-independent (the chunk
        // depends only on rank), so one iteration's worth describes all.
        st.buf_loads.push_back(
            {d, StridedInterval::contiguous(r0 * row_elems,
                                            (r1 - r0) * row_elems)});
        st.buf_stores.push_back(
            {d, StridedInterval::contiguous(r0 * row_elems,
                                            (r1 - r0) * row_elems)});
      }
    }
  }
  *out = std::move(st);
}

/// Stage-parallel and double-buffer: one tiled stage model per stage of
/// the plan the stage-chain engine executes. A Lockstep stage is one
/// un-tiled pass (every thread transforms and rotates its row chunk,
/// temporal stores); a Table II stage streams blocks through the buffer.
bool build_stage_chain(const std::vector<idx_t>& dims, const FftOptions& opts,
                       PlanModel* out, std::string* why) {
  const StagePlan plan = plan_stages(dims, opts);
  if (!plan.ok()) {
    *why = plan.why;
    return false;
  }
  const bool lockstep = plan.schedule == StageSchedule::Lockstep;
  const bool pipelined = !lockstep && plan.data() > 0;
  out->engine = engine_name(lockstep ? EngineKind::StageParallel
                                     : EngineKind::DoubleBuffer);
  out->threads = plan.threads;
  out->compute_threads = plan.compute;
  out->data_threads = plan.data();
  for (std::size_t s = 0; s < plan.chain.size(); ++s) {
    StageModel st;
    build_tiled_stage(plan.chain[s], out->total, plan.parts(),
                      plan.block_rows[s], pipelined, plan.nontemporal,
                      "stage-" + std::to_string(s), &st);
    out->stages.push_back(std::move(st));
  }
  return true;
}

/// In-place pass whose per-rank window serves as both read and write set.
StageModel inplace_pass(const std::string& name, idx_t total, int parts,
                        std::vector<OwnedWindow> windows) {
  StageModel st;
  st.name = name;
  st.in_elems = total;
  st.out_elems = total;
  st.parts = parts;
  st.in_place = true;
  st.fence_before_publish = true;  // temporal stores; vacuous
  st.loads = windows;
  st.stores = std::move(windows);
  return st;
}

bool build_pencil(const std::vector<idx_t>& dims, const FftOptions& opts,
                  PlanModel* out, std::string* why) {
  for (idx_t d : dims) {
    if (!is_pow2(d)) {
      *why = "pencil engine requires power-of-two sizes";
      return false;
    }
  }
  const int p = resolve_role_counts(opts).threads;
  out->engine = engine_name(EngineKind::Pencil);
  out->threads = p;
  out->compute_threads = p;
  out->data_threads = 0;
  const idx_t total = out->total;

  if (dims.size() == 2) {
    const idx_t n = dims[0], m = dims[1];
    std::vector<OwnedWindow> x, y;
    for (int t = 0; t < p; ++t) {
      auto [b, e] = ThreadTeam::chunk(n, p, t);
      if (e > b) x.push_back({t, StridedInterval::contiguous(b * m,
                                                             (e - b) * m)});
      auto [cb, ce] = ThreadTeam::chunk(m, p, t);
      if (ce > cb) y.push_back({t, {cb, ce - cb, m, n}});
    }
    out->stages.push_back(inplace_pass("x-pass", total, p, std::move(x)));
    out->stages.push_back(inplace_pass("y-pass", total, p, std::move(y)));
  } else {
    const idx_t k = dims[0], n = dims[1], m = dims[2];
    std::vector<OwnedWindow> x, y, z;
    for (int t = 0; t < p; ++t) {
      auto [b, e] = ThreadTeam::chunk(k * n, p, t);
      if (e > b) x.push_back({t, StridedInterval::contiguous(b * m,
                                                             (e - b) * m)});
      // y pencils are indexed by (z, x) pairs; a rank's chunk can span
      // several z slabs, each contributing one strided window of its
      // x sub-range.
      auto [ib, ie] = ThreadTeam::chunk(k * m, p, t);
      for (idx_t i = ib; i < ie;) {
        const idx_t zz = i / m;
        const idx_t seg_end = std::min(ie, (zz + 1) * m);
        const idx_t x0 = i % m;
        y.push_back({t, {zz * n * m + x0, seg_end - i, m, n}});
        i = seg_end;
      }
      auto [cb, ce] = ThreadTeam::chunk(n * m, p, t);
      if (ce > cb) z.push_back({t, {cb, ce - cb, n * m, k}});
    }
    out->stages.push_back(inplace_pass("x-pass", total, p, std::move(x)));
    out->stages.push_back(inplace_pass("y-pass", total, p, std::move(y)));
    out->stages.push_back(inplace_pass("z-pass", total, p, std::move(z)));
  }
  return true;
}

bool build_slab_pencil(const std::vector<idx_t>& dims, const FftOptions& opts,
                       PlanModel* out, std::string* why) {
  if (dims.size() != 3) {
    *why = "slab-pencil engine is 3D only";
    return false;
  }
  const idx_t k = dims[0], n = dims[1], m = dims[2];
  const idx_t slab = n * m;
  const idx_t mu = packet_size_for(m);
  const int p = resolve_role_counts(opts).threads;
  out->engine = engine_name(EngineKind::SlabPencil);
  out->threads = p;
  out->compute_threads = p;
  out->data_threads = 0;

  // Phase 1: a 2D FFT per z slab; a rank owns whole slabs, so its output
  // window is the contiguous slab range (the per-thread scratch in
  // between is private and never shared).
  StageModel s1;
  s1.name = "slabs-2d";
  s1.in_elems = s1.out_elems = out->total;
  s1.parts = p;
  s1.fence_before_publish = true;
  for (int t = 0; t < p; ++t) {
    auto [zb, ze] = ThreadTeam::chunk(k, p, t);
    if (ze <= zb) continue;
    s1.loads.push_back({t, StridedInterval::contiguous(zb * slab,
                                                       (ze - zb) * slab)});
    s1.stores.push_back({t, StridedInterval::contiguous(zb * slab,
                                                        (ze - zb) * slab)});
  }
  out->stages.push_back(std::move(s1));

  // Phase 2: z pencils in mu-lane groups, in place on the output.
  std::vector<OwnedWindow> zw;
  for (int t = 0; t < p; ++t) {
    auto [b, e] = ThreadTeam::chunk(slab / mu, p, t);
    if (e > b) zw.push_back({t, {b * mu, (e - b) * mu, slab, k}});
  }
  out->stages.push_back(
      inplace_pass("z-pencils", out->total, p, std::move(zw)));
  return true;
}

}  // namespace

std::string PlanModel::label() const {
  std::ostringstream os;
  os << engine << " ";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    os << (i ? "x" : "") << dims[i];
  }
  os << " p=" << threads << " pc=" << compute_threads
     << " pd=" << data_threads;
  return os.str();
}

std::string StaticIssue::str() const {
  std::string s = std::string("[") + issue_kind_name(kind) + "] ";
  if (!stage.empty()) s += stage + ": ";
  return s + detail;
}

std::string StaticReport::str() const {
  std::ostringstream os;
  if (ok()) {
    os << "static verify: clean (" << plan << ", " << checks << " checks)";
    return os.str();
  }
  os << "static verify: " << issues.size() << " issue(s) (" << plan << ")";
  for (const auto& i : issues) os << "\n  " << i.str();
  return os.str();
}

bool build_plan_model(const std::vector<idx_t>& dims, const FftOptions& opts,
                      PlanModel* out, std::string* why) {
  std::string unused;
  if (why == nullptr) why = &unused;
  *out = PlanModel{};
  out->dims = dims;
  out->total = 1;
  for (idx_t d : dims) out->total *= d;
  if (dims.size() != 2 && dims.size() != 3) {
    *why = "engines support 2D and 3D only";
    return false;
  }
  for (idx_t d : dims) {
    if (d < 1) {
      *why = "dimensions must be positive";
      return false;
    }
  }
  switch (opts.engine) {
    case EngineKind::DoubleBuffer:
    case EngineKind::StageParallel:
      return build_stage_chain(dims, opts, out, why);
    case EngineKind::Pencil:
      return build_pencil(dims, opts, out, why);
    case EngineKind::SlabPencil:
      return build_slab_pencil(dims, opts, out, why);
    default:
      *why = "no symbolic model for this engine kind";
      return false;
  }
}

StaticReport verify_plan(const PlanModel& model) {
  StaticReport rep;
  rep.plan = model.label();

  for (std::size_t s = 0; s < model.stages.size(); ++s) {
    const StageModel& st = model.stages[s];

    // (1) Store windows: pairwise disjoint, in bounds, exact cover.
    ++rep.checks;
    const PartitionReport stores =
        check_partition(st.stores, st.out_elems, /*require_cover=*/true);
    for (const IntervalIssue& i : stores.issues) {
      StaticIssue::Kind kind = StaticIssue::Kind::PartitionOverlap;
      if (i.kind == IntervalIssue::Kind::Gap) {
        kind = StaticIssue::Kind::PartitionGap;
      } else if (i.kind == IntervalIssue::Kind::OutOfBounds) {
        kind = StaticIssue::Kind::OutOfBounds;
      }
      std::ostringstream os;
      os << i.str();
      if (i.kind == IntervalIssue::Kind::Overlap) {
        os << " (" << owner_str(i.owner_a, st.parts) << " vs "
           << owner_str(i.owner_b, st.parts) << ")";
      }
      add_issue(rep, kind, st.name, os.str());
    }

    // Read coverage: every input element is consumed (overlapping reads
    // are legal — in-place passes read what they write — so only gaps
    // and bounds escapes count).
    ++rep.checks;
    const PartitionReport loads =
        check_partition(st.loads, st.in_elems, /*require_cover=*/true);
    for (const IntervalIssue& i : loads.issues) {
      if (i.kind == IntervalIssue::Kind::Overlap) continue;
      add_issue(rep,
                i.kind == IntervalIssue::Kind::Gap
                    ? StaticIssue::Kind::PartitionGap
                    : StaticIssue::Kind::OutOfBounds,
                st.name, "read set: " + i.str());
    }

    // (4) Conservation: the write element count balances the stage
    // output, and the stage consumes exactly what the previous one
    // produced.
    ++rep.checks;
    idx_t written = 0;
    for (const OwnedWindow& w : st.stores) written += w.iv.elems();
    if (written != st.out_elems) {
      std::ostringstream os;
      os << "windows write " << written << " elements but the stage output "
         << "holds " << st.out_elems;
      add_issue(rep, StaticIssue::Kind::NotConservative, st.name, os.str());
    }
    if (st.in_elems != st.out_elems) {
      std::ostringstream os;
      os << "stage reads " << st.in_elems << " elements but writes "
         << st.out_elems;
      add_issue(rep, StaticIssue::Kind::NotConservative, st.name, os.str());
    }
    if (s > 0 && model.stages[s - 1].out_elems != st.in_elems) {
      add_issue(rep, StaticIssue::Kind::NotConservative, st.name,
                "stage input size does not match the previous stage output");
    }

    // (2) Fence pairing: non-temporal stores must reach a stream fence
    // on the storing thread before the barrier that publishes them —
    // otherwise a reader on another core can observe stale data after
    // the barrier.
    ++rep.checks;
    if (st.nt_store && !st.fence_before_publish) {
      add_issue(rep, StaticIssue::Kind::MissingFence, st.name,
                "non-temporal stores are published by a barrier with no "
                "stream_fence() before it");
    }

    // (3) Buffer epoch aliasing: in the Table II schedule Store(i-2) and
    // Load(i) run concurrently on DIFFERENT data threads with no
    // ordering until the step barrier, so a Load window may only alias
    // the SAME rank's Store window (program order serialises those two).
    ++rep.checks;
    if (st.pipelined) {
      for (const OwnedWindow& ld : st.buf_loads) {
        for (const OwnedWindow& sw : st.buf_stores) {
          if (ld.owner == sw.owner) continue;
          if (windows_overlap(ld.iv, sw.iv)) {
            std::ostringstream os;
            os << "Load window of rank " << ld.owner << " " << ld.iv.str()
               << " aliases the pending Store window of rank " << sw.owner
               << " " << sw.iv.str() << " in the shared buffer";
            add_issue(rep, StaticIssue::Kind::EpochAlias, st.name, os.str());
          }
        }
      }
    }
  }
  return rep;
}

}  // namespace bwfft::analysis
