#include "core/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "core/delta_overlay.h"
#include "core/rcj_brute.h"
#include "core/rcj_bulk.h"
#include "core/rcj_inj.h"
#include "storage/cost_model.h"

namespace rcj {
namespace {

Status BuildTree(RTree* tree, const std::vector<PointRecord>& records,
                 bool bulk_load) {
  if (bulk_load) {
    return tree->BulkLoadStr(records);
  }
  for (const PointRecord& rec : records) {
    RINGJOIN_RETURN_IF_ERROR(tree->Insert(rec));
  }
  return Status::OK();
}

size_t BufferPagesFor(uint64_t total_pages, double fraction,
                      size_t min_pages) {
  const auto pages = static_cast<size_t>(fraction *
                                         static_cast<double>(total_pages));
  return std::max(min_pages, pages);
}

}  // namespace

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kMem:
      return "mem";
    case StorageBackend::kFile:
      return "file";
    case StorageBackend::kMmap:
      return "mmap";
  }
  return "?";
}

bool ParseStorageBackend(const std::string& name, StorageBackend* out) {
  if (name == "mem") {
    *out = StorageBackend::kMem;
  } else if (name == "file") {
    *out = StorageBackend::kFile;
  } else if (name == "mmap") {
    *out = StorageBackend::kMmap;
  } else {
    return false;
  }
  return true;
}

Status RcjEnvironment::MakeStore(const RcjRunOptions& options,
                                 const std::string& label,
                                 std::unique_ptr<PageStore>* store,
                                 std::string* path) {
  if (options.storage == StorageBackend::kMem) {
    *store = std::make_unique<MemPageStore>(options.page_size);
    path->clear();
    return Status::OK();
  }
  const std::string dir =
      options.storage_dir.empty() ? "." : options.storage_dir;
  *path = dir + "/rcj_env_" + std::to_string(::getpid()) + "_" +
          std::to_string(generation_) + "_" + label + ".pages";
  // RTree::Create needs an empty store; a leftover file from a crashed run
  // must not leak into this environment.
  std::remove(path->c_str());
  if (options.storage == StorageBackend::kFile) {
    Result<std::unique_ptr<FilePageStore>> opened =
        FilePageStore::Open(*path, options.page_size, /*create=*/true);
    if (!opened.ok()) return opened.status();
    *store = std::move(opened).value();
  } else {
    Result<std::unique_ptr<MappedPageStore>> opened =
        MappedPageStore::Open(*path, options.page_size, /*create=*/true);
    if (!opened.ok()) return opened.status();
    *store = std::move(opened).value();
  }
  return Status::OK();
}

Result<std::unique_ptr<RcjEnvironment>> RcjEnvironment::PrepareStores(
    bool self_join, const RcjRunOptions& options) {
  static std::atomic<uint64_t> next_generation{1};
  std::unique_ptr<RcjEnvironment> env(new RcjEnvironment());
  env->generation_ =
      next_generation.fetch_add(1, std::memory_order_relaxed);
  env->self_join_ = self_join;
  env->storage_ = options.storage;
  env->keep_storage_files_ = options.keep_storage_files;
  env->rtree_options_ = options.rtree_options;

  // Build with a generous buffer, then shrink to the experiment size — the
  // paper measures joins, not index construction.
  env->buffer_ = std::make_unique<BufferManager>(1u << 20);

  RINGJOIN_RETURN_IF_ERROR(
      env->MakeStore(options, "q", &env->q_store_, &env->q_path_));
  Result<std::unique_ptr<RTree>> tq =
      RTree::Create(env->q_store_.get(), env->buffer_.get(),
                    options.rtree_options);
  if (!tq.ok()) return tq.status();
  env->tq_ = std::move(tq.value());

  if (!self_join) {
    RINGJOIN_RETURN_IF_ERROR(
        env->MakeStore(options, "p", &env->p_store_, &env->p_path_));
    Result<std::unique_ptr<RTree>> tp =
        RTree::Create(env->p_store_.get(), env->buffer_.get(),
                      options.rtree_options);
    if (!tp.ok()) return tp.status();
    env->tp_ = std::move(tp.value());
  }
  return env;
}

RcjEnvironment::~RcjEnvironment() {
  // Release views and flush the buffer while the stores are still alive,
  // then unlink the scratch page files.
  tp_.reset();
  tq_.reset();
  buffer_.reset();
  p_store_.reset();
  q_store_.reset();
  if (!keep_storage_files_) {
    if (!q_path_.empty()) std::remove(q_path_.c_str());
    if (!p_path_.empty()) std::remove(p_path_.c_str());
  }
}

Result<std::unique_ptr<RcjEnvironment>> RcjEnvironment::BuildImpl(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset, bool self_join,
    const RcjRunOptions& options) {
  Result<std::unique_ptr<RcjEnvironment>> prepared =
      PrepareStores(self_join, options);
  if (!prepared.ok()) return prepared.status();
  std::unique_ptr<RcjEnvironment> env = std::move(prepared).value();
  env->qset_ = qset;
  env->pset_ = self_join ? qset : pset;

  RINGJOIN_RETURN_IF_ERROR(
      BuildTree(env->tq_.get(), env->qset_, options.bulk_load));
  if (!self_join) {
    RINGJOIN_RETURN_IF_ERROR(
        BuildTree(env->tp_.get(), env->pset_, options.bulk_load));
  }

  // Persist both tree headers so the parallel engine can open additional
  // read-only views over the same stores (RTree::Open reads the header
  // page). SetBufferFraction below clears the buffer, which also flushes
  // every constructed page to the stores.
  RINGJOIN_RETURN_IF_ERROR(env->tq_->SaveHeader());
  if (!self_join) {
    RINGJOIN_RETURN_IF_ERROR(env->tp_->SaveHeader());
  }

  RINGJOIN_RETURN_IF_ERROR(env->SetBufferFraction(options.buffer_fraction,
                                                  options.min_buffer_pages));
  // The trees are read-only from here on. Syncing flushes the page files
  // and switches the pread backend into its O_DIRECT read path.
  RINGJOIN_RETURN_IF_ERROR(env->q_store_->Sync());
  if (!self_join) RINGJOIN_RETURN_IF_ERROR(env->p_store_->Sync());
  return env;
}

Result<std::unique_ptr<RcjEnvironment>> RcjEnvironment::BuildExternal(
    PointSource* qsource, PointSource* psource,
    const RcjRunOptions& options) {
  if (!options.bulk_load) {
    return Status::InvalidArgument(
        "BuildExternal requires bulk loading (one-by-one insertion would "
        "need the resident pointset anyway)");
  }
  Result<std::unique_ptr<RcjEnvironment>> prepared =
      PrepareStores(/*self_join=*/false, options);
  if (!prepared.ok()) return prepared.status();
  std::unique_ptr<RcjEnvironment> env = std::move(prepared).value();
  env->resident_pointsets_ = false;

  // The external loader writes each node page exactly once, so a modest
  // build pool suffices regardless of tree size — that bound is the point.
  RINGJOIN_RETURN_IF_ERROR(env->buffer_->Clear());
  RINGJOIN_RETURN_IF_ERROR(env->buffer_->SetCapacity(1u << 16));

  const std::string spill_dir =
      options.storage_dir.empty() ? "." : options.storage_dir;
  RINGJOIN_RETURN_IF_ERROR(
      env->tq_->BulkLoadStrExternal(qsource, spill_dir));
  RINGJOIN_RETURN_IF_ERROR(
      env->tp_->BulkLoadStrExternal(psource, spill_dir));

  RINGJOIN_RETURN_IF_ERROR(env->tq_->SaveHeader());
  RINGJOIN_RETURN_IF_ERROR(env->tp_->SaveHeader());
  RINGJOIN_RETURN_IF_ERROR(env->SetBufferFraction(options.buffer_fraction,
                                                  options.min_buffer_pages));
  // Read-only from here on; arm the pread backend's O_DIRECT path.
  RINGJOIN_RETURN_IF_ERROR(env->q_store_->Sync());
  RINGJOIN_RETURN_IF_ERROR(env->p_store_->Sync());
  return env;
}

Result<std::unique_ptr<RcjEnvironment>> RcjEnvironment::Build(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset, const RcjRunOptions& options) {
  return BuildImpl(qset, pset, /*self_join=*/false, options);
}

Result<std::unique_ptr<RcjEnvironment>> RcjEnvironment::BuildSelf(
    const std::vector<PointRecord>& set, const RcjRunOptions& options) {
  return BuildImpl(set, set, /*self_join=*/true, options);
}

uint64_t RcjEnvironment::total_tree_pages() const {
  uint64_t total = tq_->num_pages();
  if (!self_join_) total += tp_->num_pages();
  return total;
}

Status RcjEnvironment::SetBufferFraction(double fraction, size_t min_pages) {
  RINGJOIN_RETURN_IF_ERROR(buffer_->Clear());
  return buffer_->SetCapacity(
      BufferPagesFor(total_tree_pages(), fraction, min_pages));
}

Status ExecuteRcj(const RTree& tq, const RTree& tp,
                  const std::vector<PointRecord>& qset,
                  const std::vector<PointRecord>& pset, bool self_join,
                  const QuerySpec& spec,
                  const std::vector<uint64_t>* tq_leaf_subset, bool delta_tail,
                  PairSink* sink, JoinStats* stats) {
  const DeltaOverlay* overlay =
      spec.overlay != nullptr && !spec.overlay->empty() ? spec.overlay
                                                        : nullptr;
  switch (spec.algorithm) {
    case RcjAlgorithm::kBrute: {
      if (tq_leaf_subset != nullptr) {
        return Status::InvalidArgument(
            "BRUTE does not traverse T_Q leaves; leaf subsets do not apply");
      }
      const std::vector<PointRecord>* bq = &qset;
      const std::vector<PointRecord>* bp = &pset;
      std::vector<PointRecord> eff_q, eff_p;
      if (overlay != nullptr) {
        eff_q = EffectivePointset(qset, *overlay, LiveSide::kQ);
        bq = &eff_q;
        if (self_join) {
          bp = &eff_q;
        } else {
          eff_p = EffectivePointset(pset, *overlay, LiveSide::kP);
          bp = &eff_p;
        }
      }
      // The in-memory definitional algorithm; candidates = |P| x |Q| by
      // construction (counted up front even if the sink stops the stream).
      stats->candidates += self_join
                               ? bq->size() * (bq->size() - 1) / 2
                               : bp->size() * bq->size();
      uint64_t emitted = 0;
      CallbackSink counting([&emitted, sink](const RcjPair& pair) {
        ++emitted;
        return sink->Emit(pair);
      });
      const Status status = self_join ? BruteForceRcjSelf(*bq, &counting)
                                      : BruteForceRcj(*bp, *bq, &counting);
      stats->results += emitted;
      return status;
    }
    case RcjAlgorithm::kInj: {
      InjOptions inj;
      inj.order = spec.order;
      inj.verify = spec.verify;
      inj.self_join = self_join;
      inj.random_seed = spec.random_seed;
      inj.leaf_pages = tq_leaf_subset;
      inj.overlay = overlay;
      inj.delta_tail = delta_tail;
      return RunInj(tq, tp, inj, sink, stats);
    }
    case RcjAlgorithm::kBij:
    case RcjAlgorithm::kObj: {
      BulkJoinOptions bulk;
      bulk.symmetric_pruning = spec.algorithm == RcjAlgorithm::kObj;
      bulk.verify = spec.verify;
      bulk.self_join = self_join;
      bulk.order = spec.order;
      bulk.random_seed = spec.random_seed;
      bulk.leaf_pages = tq_leaf_subset;
      bulk.overlay = overlay;
      bulk.delta_tail = delta_tail;
      return RunBulkJoin(tq, tp, bulk, sink, stats);
    }
  }
  return Status::InvalidArgument("unknown RCJ algorithm");
}

Status RcjEnvironment::Run(const QuerySpec& spec, PairSink* sink,
                           JoinStats* stats) {
  QuerySpec bound = spec;
  if (bound.env == nullptr) bound.env = this;
  RINGJOIN_RETURN_IF_ERROR(bound.Validate());
  if (bound.env != this) {
    return Status::InvalidArgument(
        "QuerySpec is bound to a different environment");
  }
  if (bound.algorithm == RcjAlgorithm::kBrute && !resident_pointsets_) {
    return Status::InvalidArgument(
        "BRUTE needs the resident pointsets, which an externally built "
        "environment never materializes");
  }
  if (bound.overlay != nullptr && bound.overlay->self_join != self_join_) {
    return Status::InvalidArgument(
        "QuerySpec overlay self-join mode does not match the environment");
  }

  *stats = JoinStats();
  const RTree& tq = *tq_;
  const RTree& tp = self_join_ ? *tq_ : *tp_;

  // Cold start, as in the paper: each algorithm measurement begins with an
  // empty buffer and zeroed counters.
  RINGJOIN_RETURN_IF_ERROR(buffer_->Clear());
  buffer_->ResetStats();

  // The limit is enforced here, at the delivery boundary, so the
  // algorithms stay limit-agnostic: the sink's refusal is what stops the
  // traversal after exactly `limit` pairs of the serial order.
  LimitSink limited(sink, bound.limit);

  const auto start = std::chrono::steady_clock::now();
  const Status status =
      ExecuteRcj(tq, tp, qset_, pset_, self_join_, bound,
                 /*tq_leaf_subset=*/nullptr, /*delta_tail=*/true, &limited,
                 stats);
  if (!status.ok()) return status;
  const auto end = std::chrono::steady_clock::now();

  const BufferStats& buffer_stats = buffer_->stats();
  stats->node_accesses = buffer_stats.logical_accesses;
  stats->page_faults = buffer_stats.page_faults;
  stats->cold_faults = buffer_stats.cold_faults;
  stats->warm_faults = buffer_stats.warm_faults();
  stats->io_seconds =
      IoCostModel{bound.io_ms_per_fault}.SecondsFor(buffer_stats);
  stats->io_wall_seconds = buffer_stats.io_wall_seconds;
  stats->cpu_seconds = std::chrono::duration<double>(end - start).count();
  return Status::OK();
}

Result<RcjRunResult> RcjEnvironment::Run(const QuerySpec& spec) {
  RcjRunResult result;
  VectorSink sink(&result.pairs);
  const Status status = Run(spec, &sink, &result.stats);
  if (!status.ok()) return status;
  return result;
}

void NormalizePairs(std::vector<RcjPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const RcjPair& a, const RcjPair& b) {
              if (a.q.id != b.q.id) return a.q.id < b.q.id;
              return a.p.id < b.p.id;
            });
}

}  // namespace rcj
