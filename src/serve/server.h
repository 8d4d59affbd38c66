// retina::serve daemon core: a stream-socket server (Unix-domain and/or
// TCP, same frame protocol on both) that feeds a bounded admission queue
// drained by a retina::par worker pool through a coalescing dispatcher.
//
// Thread architecture (N = handler->num_workers()):
//
//   accept thread      polls every listener (Unix socket, TCP, or both),
//                      one reader thread per connection; promotes an
//                      external SIGTERM/SIGINT into RequestShutdown().
//   reader threads     decode frames. kScoreRequest -> TryPush onto the
//                      admission queue, answering kShed immediately when
//                      it is full (shed-on-full keeps overload latency
//                      bounded); kMetricsRequest answered inline. The
//                      accept thread joins each reader once it exits.
//   dispatcher thread  runs pool->Run(N, worker-loop) on a dedicated
//                      N-thread retina::par pool. Each worker loop pops
//                      until the queue closes. Because the loops execute
//                      inside a parallel region, the model forward's own
//                      ParallelFor runs inline — each request is scored
//                      single-threaded on its worker, deterministically,
//                      and N requests score concurrently.
//
// Same-tweet coalescing (the batching dispatcher): the paper's serving
// shape is cascade scoring — many concurrent "who retweets tweet T
// next?" requests against the same hot tweet — which is exactly what the
// engine's batched GEMM path was built for. Instead of popping one item,
// a worker pops a contiguous FIFO run of up to coalesce_max_batch items
// (BoundedQueue::PopBatch), lingers for coalesce_linger_polls extra
// non-blocking queue polls to let a partial batch fill (polls, not wall
// clock, so tests stay deterministic), groups the run by tweet id in
// first-appearance order, and hands each group to
// Handler::HandleScoreBatch as one fused call. Fan-out is byte-identical
// to unbatched handling — the engine's batched-forward contract makes
// entry i of a fused batch bit-equal to a lone request's score — and
// every response still goes to its own connection. Items leave the queue
// strictly FIFO; coalescing never reorders admission.
//
// TraceContext discipline (the standing invariant): the queue is a
// thread hand-off, so each WorkItem captures the enqueuing reader's
// obs::TraceContext and the worker adopts it around handling (restoring
// its own afterwards), exactly the way par::ThreadPool::Run does for its
// job submitter. A coalesced group adopts the FIRST-enqueued item's
// context — one fused handler call, one ambient trace — and a
// TraceRequestScope inside the adopted context then mints the
// per-request (per-batch) trace id.
//
// Drain state machine (SIGTERM or RequestShutdown()):
//
//   ACCEPTING --> DRAINING: stop accepting (listener closed, socket file
//              unlinked), readers finish their current frame and exit --
//              nothing new enters the queue.
//   DRAINING  --> DRAINED: queue closed; workers finish every item that
//              was admitted (BoundedQueue::Pop hands out queued items
//              after Close), write their responses, and exit.
//   Wait() then returns so the daemon can export --metrics-out /
//   --trace-out. Admitted requests are never dropped: an item either
//   gets a response or was shed at admission with an immediate reply.
//
// Live telemetry (kMetrics + the metrics cadence): kMetricsRequest is
// answered inline on the reader thread with a typed obs::RegistrySnapshot.
// The server-owned stats (SnapshotStats: plain atomics, not retina::obs)
// and the handler's (Handler::AppendStats: dataset shape) are overlaid
// onto its counter map, so the reply stays authoritative when obs is
// disabled or compiled out — observers never change behavior. The
// dispatcher drives a logical metrics clock: every
// metrics_tick_requests handled requests it rotates the windowed
// histograms (so SnapshotWindow answers "p99 over the recent past"),
// re-samples the process gauges, and — when prom_out is set — atomically
// refreshes the Prometheus exposition file. The cadence counts requests,
// never wall time, so the obs-on ≡ obs-off determinism pin is untouched.

#ifndef RETINA_SERVE_SERVER_H_
#define RETINA_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/obs.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "serve/handler.h"
#include "serve/protocol.h"

namespace retina::serve {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (empty = no Unix
  /// listener). A leftover file at the path is connect-probed first: if a
  /// live daemon answers, Start() fails instead of stealing its socket;
  /// if nothing answers (a SIGKILL'd prior run left a stale inode), the
  /// file is unlinked and the bind proceeds. The daemon unlinks the path
  /// again on drain.
  std::string socket_path;
  /// TCP listen address as "host:port" (empty = no TCP listener). Bound
  /// with SO_REUSEADDR; port 0 asks the kernel for a free port, readable
  /// afterwards via tcp_port(). Same frame protocol, same admission/shed/
  /// drain machinery as the Unix listener. At least one of socket_path /
  /// listen_address must be set.
  std::string listen_address;
  /// Admission-queue capacity; requests beyond it are shed (kShed reply).
  size_t queue_capacity = 256;
  /// Upper bound on how many queued same-tweet score requests one worker
  /// fuses into a single Handler::HandleScoreBatch call. 1 disables
  /// coalescing (every request dispatches alone, the pre-coalescing
  /// behavior).
  size_t coalesce_max_batch = 16;
  /// Extra non-blocking queue polls a worker spends topping up a partial
  /// run before dispatching it. Measured in polls, not wall time, so the
  /// linger window is deterministic under test scheduling.
  size_t coalesce_linger_polls = 2;
  /// Install SIGTERM/SIGINT handlers that trigger the graceful drain.
  /// The daemon main turns this on; tests drive RequestShutdown directly
  /// or raise() the signal themselves.
  bool install_signal_handler = false;
  /// Metrics cadence: every this-many handled score requests the
  /// dispatcher ticks the windowed histograms, re-samples process gauges,
  /// and refreshes prom_out. 0 disables the cadence entirely.
  size_t metrics_tick_requests = 64;
  /// Path of the Prometheus text-exposition file, refreshed atomically
  /// (write temp + rename) on the metrics cadence and once at drain.
  /// Empty disables the writer.
  std::string prom_out;
};

/// \brief One listening socket + admission queue + worker pool around a
/// Handler. Start() spawns the threads; Wait() blocks until a drain
/// completes. The handler must outlive the server.
class Server {
 public:
  Server(Handler* handler, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept/dispatch machinery.
  Status Start();

  /// Blocks until the drain state machine has fully run (triggered by
  /// RequestShutdown or a handled signal). Returns only after every
  /// admitted request has been answered and all threads joined.
  Status Wait();

  /// Idempotent, thread-safe drain trigger — the programmatic SIGTERM.
  void RequestShutdown();

  /// True once a shutdown/drain has been requested.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Port the TCP listener actually bound (useful with listen_address
  /// ":0"); 0 when no TCP listener was configured or before Start().
  uint16_t tcp_port() const { return tcp_port_; }

  /// Server-owned traffic counters (see header comment), merged with the
  /// handler's stats. Safe to call any time, including during traffic.
  void SnapshotStats(std::map<std::string, uint64_t>* stats) const;

 private:
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    ~Conn();
    const int fd;
    std::mutex write_mu;  ///< serializes worker/reader frame writes
  };

  /// An admitted request: the decoded frame plus the enqueuer's trace
  /// context and the admission timestamp (for serve.queue_wait_ns).
  struct WorkItem {
    std::shared_ptr<Conn> conn;
    ScoreRequest req;
    obs::TraceContext ctx;
    uint64_t enqueue_ns = 0;
  };

  /// A connection's reader thread; `done` flips as its last act, so the
  /// accept thread can join it without blocking.
  struct Reader {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  Status StartUnixListener();
  Status StartTcpListener();
  void AcceptLoop();
  /// Accept thread only: joins and forgets readers that have exited, so a
  /// long-lived daemon holds one thread (and stack) per open connection,
  /// not per connection ever accepted.
  void ReapReaders();
  /// Accept thread only: starts `conn`'s reader. A failed thread creation
  /// closes that connection and counts serve.accept_errors.
  void SpawnReader(std::shared_ptr<Conn> conn);
  void ReaderLoop(std::shared_ptr<Conn> conn, std::atomic<bool>* done);
  void DispatchLoop();
  void WorkerLoop(size_t worker);
  /// Dispatches one coalesced same-tweet group (`items[indices]`) as a
  /// single handler call and fans the responses back out.
  void DispatchGroup(size_t worker, std::vector<WorkItem>* items,
                     const std::vector<size_t>& indices);
  /// Reader-side handling of a single frame; an error (malformed frame or
  /// a type clients may not send) closes the connection.
  Status HandleFrame(const std::shared_ptr<Conn>& conn,
                     const std::string& payload);
  /// Writes one encoded response frame; a vanished client only counts
  /// serve.write_errors.
  void WritePayload(Conn* conn, const std::string& payload);
  /// Advances the logical metrics clock by `n_done` handled requests and,
  /// on a cadence boundary, ticks the window ring, re-samples process
  /// gauges, and refreshes the Prometheus file.
  void MaybeTickMetrics(size_t n_done);

  Handler* handler_;
  ServerOptions options_;
  int listen_fd_ = -1;      ///< Unix-domain listener, -1 when absent
  int tcp_listen_fd_ = -1;  ///< TCP listener, -1 when absent
  uint16_t tcp_port_ = 0;
  bool started_ = false;

  par::BoundedQueue<WorkItem> queue_;
  std::unique_ptr<par::ThreadPool> pool_;
  std::atomic<bool> draining_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  /// Owned by the accept thread; Wait() takes over after joining it. A
  /// list, so each Reader's `done` flag stays put while others are erased.
  std::list<Reader> readers_;

  // Authoritative traffic counters: plain atomics, deliberately not obs
  // instruments, so the kMetrics overlay is identical with obs disabled.
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};   ///< admitted score requests
  std::atomic<uint64_t> responses_{0};  ///< score responses written
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> errors_{0};  ///< kError responses (bad requests)
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> write_errors_{0};
  std::atomic<uint64_t> accept_errors_{0};  ///< reader threads not started
  std::atomic<uint64_t> queue_depth_peak_{0};
  /// Coalescing outcome counters: a "batch" is a fused handler call
  /// covering >= 2 requests; batched_requests is the requests those calls
  /// covered. avg batch size = batched_requests / batches.
  std::atomic<uint64_t> coalesce_batches_{0};
  std::atomic<uint64_t> coalesce_batched_requests_{0};
  /// Logical metrics clock: handled-request count feeding the cadence.
  std::atomic<uint64_t> metrics_tick_counter_{0};
  std::mutex prom_mu_;  ///< single prom writer; boundary crossers skip

  /// Observational mirrors, resolved once at construction.
  struct ObsHooks {
    static ObsHooks Resolve();
    obs::Counter* connections;
    obs::Counter* requests;
    obs::Counter* responses;
    obs::Counter* shed;
    obs::Counter* errors;
    obs::Counter* protocol_errors;
    obs::Counter* accept_errors;
    obs::Counter* coalesce_batches;
    obs::Counter* coalesce_batched_requests;
    obs::Gauge* queue_depth_peak;
    obs::Gauge* queue_capacity;
    obs::Gauge* workers;
    obs::Gauge* coalesce_max_batch;
    // Windowed: one Record feeds both the cumulative histogram (same
    // registry name, shared storage) and the current window slot.
    obs::WindowedHistogram* queue_wait_ns;
    obs::WindowedHistogram* handle_ns;
  };
  ObsHooks hooks_;
};

}  // namespace retina::serve

#endif  // RETINA_SERVE_SERVER_H_
