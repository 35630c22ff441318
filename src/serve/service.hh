/**
 * @file
 * Long-running service mode: windowed metrics, checkpointing, and
 * planned maintenance.
 *
 * The ServiceRunner advances a fully-built simulation instance in
 * fixed-size cycle windows. At every window boundary it:
 *
 *  0. retires the message-ledger records that resolved at least the
 *     network's longest source-to-destination lane latency ago,
 *     auditing each one's exactly-once delivery as it goes, so the
 *     ledger (and every checkpoint) holds live state only;
 *  1. steps any planned-maintenance operations (drain-then-disable
 *     of a router via its TAP, later rolling re-enable);
 *  2. takes a metrics snapshot, asserts both word-conservation
 *     identities on it (wire conservation including in-flight words,
 *     and admission conservation), and emits the window's counter
 *     *deltas* as one compact JSON line;
 *  3. optionally writes a one-shot checkpoint (see checkpoint.hh)
 *     carrying both the full simulation state and the runner's own
 *     harness state, so a restored process continues the JSONL
 *     stream byte-identically;
 *  4. polls the caller's stop predicate (the CLI wires this to the
 *     SIGINT/SIGTERM flag in signal.hh).
 *
 * Maintenance drains are zero-loss by construction: the runner first
 * disables every upstream feeder into the target router (upstream
 * routers' backward ports via their TAPs, endpoint injection
 * groups), waits until the router is quiescent and all attached
 * lanes are empty, and only then disables the router's own ports.
 * Re-enable rolls one port per window in reverse order, restoring
 * the exact pre-drain enable states (which may themselves reflect
 * concurrent diagnosis masking).
 */

#ifndef METRO_SERVE_SERVICE_HH
#define METRO_SERVE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/registry.hh"
#include "serve/checkpoint.hh"
#include "serve/store.hh"

namespace metro
{

/** One planned maintenance operation on a router. */
struct MaintenanceOp
{
    RouterId router = 0;

    /** First window boundary at or after this cycle starts the
     *  drain. */
    Cycle start = 0;

    /** Minimum cycles the router stays disabled once drained;
     *  re-enable begins at the first boundary at or after
     *  start + duration. */
    Cycle duration = 0;
};

/** Parse "R@START+DURATION" (e.g. "5@2048+4096"). Returns true and
 *  fills `op` on success. */
bool parseMaintenanceOp(const std::string &text, MaintenanceOp &op);

/** Service-mode settings. */
struct ServeConfig
{
    /** Cycles per window (boundaries are multiples of this from the
     *  serve start). */
    Cycle window = 1024;

    /** Absolute cycle to stop at (0 = run until the stop predicate
     *  fires). Absolute so a restored run counts total simulated
     *  cycles, not cycles since restore. */
    Cycle runCycles = 0;

    /** Digest guarding checkpoint/restore config compatibility. */
    std::uint64_t configDigest = 0;

    /** One-shot checkpoint: written at the first window boundary at
     *  or after `checkpointAt` when non-zero. */
    std::string checkpointOut;
    Cycle checkpointAt = 0;

    /**
     * Periodic checkpoints: when non-zero, write a checkpoint into
     * the keep-last-N retention store under `checkpointOut` (files
     * `<path>.<seq>` + `<path>.manifest`, see serve/store.hh) at
     * the first window boundary at or after every multiple of this
     * many cycles. This is what makes a supervised service
     * restartable.
     */
    Cycle checkpointEvery = 0;

    /** Retention depth of the periodic-checkpoint store. */
    unsigned checkpointKeep = 3;

    /**
     * Deterministic crash injection (torture harness): abort() the
     * process the moment the engine clock reaches this cycle — mid
     * window, at a boundary, or mid-maintenance, wherever it lands.
     * 0 = off.
     */
    Cycle crashAtCycle = 0;

    /** Deterministic stall injection: stop making progress (and
     *  stop heartbeating) at this cycle without exiting, so the
     *  supervisor's stall watchdog has something to catch. 0 =
     *  off. */
    Cycle stallAtCycle = 0;

    std::vector<MaintenanceOp> maintenance;
};

/**
 * Check both word-conservation identities on a cumulative metrics
 * snapshot of `net`. Returns "" when both hold, else a description
 * of the violated identity with the term values.
 */
std::string conservationViolation(const Network &net,
                                  const MetricsRegistry &snapshot);

/**
 * The serve loop. Owns no simulation state: the caller builds the
 * instance (network, drivers, fault machinery) and passes the same
 * CheckpointParticipants that checkpointing uses.
 */
class ServiceRunner
{
  public:
    ServiceRunner(const ServeConfig &config,
                  CheckpointParticipants parts);

    /** Sink for the one-line JSON window records (stdout, a file, a
     *  test vector). Unset = windows are not emitted. */
    void setEmitter(std::function<void(const std::string &)> emit);

    /** Called with the engine clock at every window boundary, after
     *  the window record is emitted — the liveness signal the
     *  supervisor's stall watchdog consumes. */
    void setHeartbeat(std::function<void(Cycle)> heartbeat);

    /** Restore simulation + runner state from a checkpoint file (or
     *  raw bytes). Returns "" on success. Must be called before
     *  run(), on a freshly built instance. @{ */
    std::string restoreFromFile(const std::string &path);
    std::string restoreFromBytes(const std::uint8_t *data,
                                 std::size_t size);
    /** @} */

    /** A checkpoint (simulation + runner state) as bytes, footer
     *  included. Same validity rule as checkpointToFile. */
    std::vector<std::uint8_t> checkpointBytes() const;

    /** Write a checkpoint (simulation + runner state) now. Only
     *  valid between windows — i.e. before run(), after run()
     *  returns, or from the emitter callback. Returns "" on
     *  success. */
    std::string checkpointToFile(const std::string &path);

    /** Write a checkpoint into the retention store now (requires
     *  checkpointEvery > 0 and a checkpointOut base). Returns ""
     *  on success. */
    std::string checkpointToStore();

    /**
     * Restore from the newest checkpoint in the retention store
     * whose integrity footer verifies, falling back entry by entry
     * past truncated or corrupted ones (each skip is logged to
     * stderr). An empty store is not an error: `restored` stays
     * false and the run starts fresh — the supervisor's dedupe
     * makes that correct, just slower. Returns "" on success.
     */
    std::string restoreFromStore(bool &restored);

    /** The retention store, when periodic checkpoints are
     *  configured (else nullptr). */
    const CheckpointStore *store() const { return store_.get(); }

    /**
     * Run windows until the stop predicate returns true, the
     * absolute cycle target is reached, or a window fails its
     * conservation check or the exactly-once audit of a retiring
     * record. Returns "" on a clean stop, else the violation's
     * description.
     */
    std::string run(const std::function<bool()> &stop_requested = {});

    /** Windows emitted so far (continues across restore). */
    std::uint64_t windowsEmitted() const { return windowIndex_; }

    /** The cumulative snapshot taken at the last window boundary. */
    const MetricsRegistry &boundarySnapshot() const { return prev_; }

    /** Cycles a resolved record stays in the ledger before it
     *  retires: the network's longest route latency. */
    Cycle retireMargin() const { return retireMargin_; }

  private:
    /** Phase machine of one maintenance op. */
    struct OpState
    {
        enum class Phase : std::uint8_t
        {
            Pending,    ///< waiting for the start boundary
            Draining,   ///< feeders off, waiting for quiescence
            Disabled,   ///< router ports off, serving around it
            Reenabling, ///< rolling port re-enable, one per window
            Done,
        };

        /** One upstream feed into the target router, with the
         *  enable state it had before the drain touched it. */
        struct Feeder
        {
            bool fromRouter = false; ///< else from an endpoint
            std::uint32_t id = 0;    ///< RouterId or NodeId
            PortIndex port = 0;      ///< backward port / out group
            bool prevEnabled = true;
        };

        Phase phase = Phase::Pending;
        std::vector<Feeder> feeders;
        /** The target router's own enables at disable time. @{ */
        std::vector<std::uint8_t> savedForward;
        std::vector<std::uint8_t> savedBackward;
        /** @} */
        /** Next port to restore during Reenabling (counts down
         *  through backward then forward ports). */
        std::uint64_t reenableCursor = 0;
    };

    void maintenanceTick(Cycle now);
    bool routerDrained(RouterId r) const;
    void beginDrain(const MaintenanceOp &op, OpState &st);
    void disableRouter(const MaintenanceOp &op, OpState &st);
    bool stepReenable(const MaintenanceOp &op, OpState &st);

    std::string windowJson(Cycle now,
                           const MetricsRegistry &delta,
                           std::uint64_t inflight) const;

    /** The runner's own checkpointed state (the harness section):
     *  one description for save and restore (see serve/stateio.hh). */
    template <class Ar, class Self>
    static void state(Ar &ar, Self &self);

    /** Finish a restore: apply the harness section (or derive the
     *  window index when there is none) and retake the boundary
     *  snapshot. */
    std::string restoreHarness(const std::vector<std::uint8_t> &blob);

    ServeConfig config_;
    CheckpointParticipants parts_;
    std::function<void(const std::string &)> emit_;
    std::function<void(Cycle)> heartbeat_;
    MetricsRegistry prev_;
    Cycle retireMargin_ = 0;
    std::uint64_t windowIndex_ = 0;
    bool checkpointDone_ = false;
    /** Next multiple-of-checkpointEvery cycle a periodic checkpoint
     *  is due at (rides in the harness blob so a restored run keeps
     *  the schedule). */
    Cycle nextCheckpointAt_ = 0;
    std::unique_ptr<CheckpointStore> store_;
    std::string storeLoadError_;
    std::vector<OpState> ops_;
};

} // namespace metro

#endif // METRO_SERVE_SERVICE_HH
