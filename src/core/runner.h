// High-level entry points: assemble the paper's experimental environment
// (two R*-trees over one shared LRU buffer, sized as a fraction of the total
// tree pages) from raw pointsets, run any RCJ algorithm with a cold buffer,
// and report paper-style statistics.
//
// Environment setup (tree construction, buffer sizing) is deliberately
// separated from execution: Build() is the one-shot expensive phase, shaped
// by RcjRunOptions, after which Run() — or the parallel engine's worker
// views opened over the same page stores — can execute any number of
// queries, each described by a QuerySpec, against the warm, immutable
// indexes.
#ifndef RINGJOIN_CORE_RUNNER_H_
#define RINGJOIN_CORE_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/pair_sink.h"
#include "core/query_spec.h"
#include "core/rcj_types.h"
#include "rtree/point_source.h"
#include "rtree/rtree.h"
#include "storage/buffer_manager.h"
#include "storage/page_store.h"

namespace rcj {

/// Where an environment's tree pages live.
enum class StorageBackend {
  kMem,   ///< heap pages: zero real I/O, the paper's modeled-cost substrate.
  kFile,  ///< pread(2) page files: real, overlappable device reads.
  kMmap,  ///< the same files read through a shared read-only mmap(2).
};

/// Human-readable backend name ("mem" / "file" / "mmap").
const char* StorageBackendName(StorageBackend backend);

/// Parses "mem" / "file" / "mmap"; returns false on anything else.
bool ParseStorageBackend(const std::string& name, StorageBackend* out);

/// Build-time knobs of an environment, defaulting to the paper's setup:
/// 1 KiB pages and a shared buffer of 1% of the total tree sizes. What a
/// query runs (algorithm, order, verification, I/O charge) is a QuerySpec.
struct RcjRunOptions {
  /// Backing storage for the built trees. kMem keeps the paper's modeled
  /// I/O; kFile/kMmap put every page in a real file under `storage_dir`,
  /// which is what JoinStats::io_wall_seconds measures.
  StorageBackend storage = StorageBackend::kMem;
  /// Directory for page files and external-build spill runs when
  /// storage != kMem; "" means the current directory.
  std::string storage_dir;
  /// Keep the page files when the environment is destroyed (default:
  /// unlink them — environments own their scratch files).
  bool keep_storage_files = false;

  uint32_t page_size = kDefaultPageSize;
  /// Buffer capacity as a fraction of the page count of both trees.
  double buffer_fraction = 0.01;
  /// Floor on the buffer size. The join's working set is roughly both root
  /// paths plus a few leaf pages (~2 heights + constant); below that the
  /// pool thrashes pathologically, which the paper's (absolutely larger)
  /// setups never hit. 32 pages = 32 KiB at the default page size.
  size_t min_buffer_pages = 32;
  /// STR bulk loading (fast, default) or one-by-one R* insertion.
  bool bulk_load = true;
  RTreeOptions rtree_options;
};

/// Result of one join execution.
struct RcjRunResult {
  std::vector<RcjPair> pairs;
  JoinStats stats;
};

/// The assembled experimental environment. Build once, then Run() any
/// number of queries against the same trees; every Run() starts with a
/// cold buffer and fresh statistics, like the paper's per-algorithm
/// measurements.
class RcjEnvironment {
 public:
  /// Builds T_Q over `qset` and T_P over `pset` (note the order: the outer
  /// loop of all algorithms iterates Q, matching the paper's INJ(T_Q, T_P)).
  static Result<std::unique_ptr<RcjEnvironment>> Build(
      const std::vector<PointRecord>& qset,
      const std::vector<PointRecord>& pset, const RcjRunOptions& options);

  /// Builds a single tree self-join environment (postbox scenario).
  static Result<std::unique_ptr<RcjEnvironment>> BuildSelf(
      const std::vector<PointRecord>& set, const RcjRunOptions& options);

  /// Streaming build for pointsets too large to hold in RAM: both trees
  /// are bulk loaded with the external-memory STR loader
  /// (RTree::BulkLoadStrExternal), reading each source once in bounded
  /// batches and spilling sorted runs under `options.storage_dir`. The
  /// resulting trees are byte-identical to Build() on the same points.
  /// Requires `options.bulk_load` (the default) and leaves the resident
  /// qset()/pset() copies empty, so Run() rejects BRUTE on such an
  /// environment. Sources must stay valid for the duration of the call.
  static Result<std::unique_ptr<RcjEnvironment>> BuildExternal(
      PointSource* qsource, PointSource* psource,
      const RcjRunOptions& options);

  /// Unlinks the environment's page files unless the build options said to
  /// keep them.
  ~RcjEnvironment();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(RcjEnvironment);

  /// Streaming primary: runs `spec` cold (cleared buffer, reset stats),
  /// emitting each pair through `sink` as it is found — in the algorithm's
  /// deterministic serial order — and filling `stats` with paper-style
  /// accounting. `spec.limit` caps the stream at the first k pairs and
  /// stops the traversal; a sink returning false does the same. `spec.env`
  /// must be this environment (or null, which binds it automatically).
  Status Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats);

  /// Collecting convenience over the streaming primary: materializes the
  /// (possibly limit-capped) stream into an RcjRunResult.
  Result<RcjRunResult> Run(const QuerySpec& spec);

  const RTree& tq() const { return *tq_; }
  const RTree& tp() const { return *tp_; }
  BufferManager& buffer() { return *buffer_; }
  bool self_join() const { return self_join_; }

  /// Process-unique id assigned at Build time. Caches keyed by environment
  /// pointer compare this too, so an environment destroyed and rebuilt at
  /// the same address can never satisfy a stale cache entry (the engine's
  /// persistent worker-view cache relies on it).
  uint64_t generation() const { return generation_; }

  /// Total pages of both trees — the base of the buffer-fraction sizing.
  uint64_t total_tree_pages() const;

  /// Resizes the shared buffer to `fraction` of the total tree pages
  /// (paper Fig. 15's sweep).
  Status SetBufferFraction(double fraction, size_t min_pages = 32);

  const std::vector<PointRecord>& qset() const { return qset_; }
  const std::vector<PointRecord>& pset() const { return pset_; }
  /// False for BuildExternal environments, whose pointsets were never
  /// materialized (BRUTE needs them; the indexed algorithms do not).
  bool resident_pointsets() const { return resident_pointsets_; }
  /// The storage backend the environment was built with.
  StorageBackend storage() const { return storage_; }

  /// Backing stores of the built trees. Build() persists both tree headers,
  /// so additional read-only views can be opened over these stores with
  /// RTree::Open (the engine opens one per task, each with a private buffer
  /// pool). `p_page_store()` is null in self-join mode.
  PageStore* q_page_store() const { return q_store_.get(); }
  PageStore* p_page_store() const { return p_store_.get(); }
  const RTreeOptions& rtree_options() const { return rtree_options_; }

 private:
  RcjEnvironment() = default;

  static Result<std::unique_ptr<RcjEnvironment>> BuildImpl(
      const std::vector<PointRecord>& qset,
      const std::vector<PointRecord>& pset, bool self_join,
      const RcjRunOptions& options);

  /// Shared skeleton of Build/BuildExternal: generation, stores, trees.
  static Result<std::unique_ptr<RcjEnvironment>> PrepareStores(
      bool self_join, const RcjRunOptions& options);
  /// Creates the backend store for `label` ("q"/"p") per `options`.
  Status MakeStore(const RcjRunOptions& options, const std::string& label,
                   std::unique_ptr<PageStore>* store, std::string* path);

  bool self_join_ = false;
  bool resident_pointsets_ = true;
  StorageBackend storage_ = StorageBackend::kMem;
  bool keep_storage_files_ = false;
  uint64_t generation_ = 0;
  RTreeOptions rtree_options_;
  std::unique_ptr<PageStore> q_store_;
  std::unique_ptr<PageStore> p_store_;  // null in self-join mode
  std::string q_path_, p_path_;  // page-file paths ("" for kMem)
  std::unique_ptr<BufferManager> buffer_;
  std::unique_ptr<RTree> tq_;
  std::unique_ptr<RTree> tp_;  // null in self-join mode (alias tq_)
  std::vector<PointRecord> qset_;
  std::vector<PointRecord> pset_;
};

/// The repeatable execution core shared by RcjEnvironment::Run and the
/// parallel engine: dispatches `spec.algorithm` over already-built trees,
/// emitting pairs through `sink` and accumulating candidate/result counts
/// into `stats`. Does not touch buffer state or wall clocks — the caller
/// decides cold/warm semantics and time accounting. Only the algorithm
/// knobs of `spec` are consulted: `spec.env` is ignored (the trees are
/// passed explicitly) and `spec.limit` is the caller's to enforce via a
/// LimitSink — the engine runs leaf-range fragments whose in-order prefix
/// is determined only at delivery time. `tq_leaf_subset`, when non-null,
/// restricts the indexed algorithms (INJ/BIJ/OBJ) to that contiguous range
/// of T_Q leaf pages; it must be null for BRUTE. `qset`/`pset` are
/// consulted only by BRUTE (which, under a live overlay, joins the
/// effective sets — base minus tombstones plus delta). `delta_tail` makes
/// the indexed algorithms append `spec.overlay`'s delta-Q tail after their
/// leaf range; exactly one fragment of a query may set it (the serial
/// runner and unsplit engine queries always do).
Status ExecuteRcj(const RTree& tq, const RTree& tp,
                  const std::vector<PointRecord>& qset,
                  const std::vector<PointRecord>& pset, bool self_join,
                  const QuerySpec& spec,
                  const std::vector<uint64_t>* tq_leaf_subset, bool delta_tail,
                  PairSink* sink, JoinStats* stats);

/// Sorts pairs by (q.id, p.id) for deterministic comparison and output.
void NormalizePairs(std::vector<RcjPair>* pairs);

}  // namespace rcj

#endif  // RINGJOIN_CORE_RUNNER_H_
