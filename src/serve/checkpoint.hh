/**
 * @file
 * Checkpoint/restore of full simulation state.
 *
 * Design (gem5-style): a checkpoint does NOT carry the topology.
 * The restoring process rebuilds the same instance from the same
 * options/seed (guarded by a config digest) and the checkpoint then
 * overwrites every piece of *dynamic* state — lane arena slots and
 * flags, router SoA port state, endpoint protocol/retry state, PRNG
 * streams, the message ledger, metric counters, scheduler
 * sleep/wake state, fault-campaign and diagnosis state — in the
 * fixed registration/creation order both processes share. Restore
 * then re-derives everything cached or thread-count-dependent (the
 * shard plan, per-shard awake counts, link wake counts, arena
 * sleeping-lane tallies, router availability snapshots), which is
 * what makes a restored run byte-identical to the uninterrupted one
 * at *any* engine thread count, including one different from the
 * saving process's.
 *
 * Format: little-endian binary, magic + version + config digest +
 * cycle, then tagged sections. Every variable-length read is
 * bounds-checked (see stateio.hh); a malformed file yields an error
 * string, never UB — the deserializer is a libFuzzer target.
 */

#ifndef METRO_SERVE_CHECKPOINT_HH
#define METRO_SERVE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace metro
{

class Network;
class ClosedLoopDriver;
class OpenLoopDriver;
class FaultInjector;
class FaultCampaign;
class DiagnosisEngine;

/** Checkpoint file format version (bump on layout changes).
 *  v2 added the whole-file integrity footer; v3 added the workload
 *  fields (trafficClass/rpcGroup/rpcFanout per ledger record, the
 *  open-loop driver's injection-process phase); v4 carries only the
 *  live ledger records plus the retired totals, and the drivers no
 *  longer list their message ids. */
constexpr std::uint32_t kCheckpointVersion = 4;

/** "MTR0" little-endian. */
constexpr std::uint32_t kCheckpointMagic = 0x3052544du;

/** "MTRF" little-endian — last 4 bytes of every checkpoint. */
constexpr std::uint32_t kCheckpointFooterMagic = 0x4652544du;

/** Bytes the integrity footer occupies at the end of a checkpoint:
 *  u64 payload length + u64 FNV-1a checksum + u32 footer magic. */
constexpr std::size_t kCheckpointFooterSize = 20;

/**
 * Everything a checkpoint covers. `net` is required; the extras are
 * optional but must match between save and restore (a checkpoint
 * taken with a campaign cannot restore into an instance without
 * one — presence is recorded per section). `harnessBlob` is an
 * opaque byte string the caller (the serve runner) round-trips for
 * its own state: window index, previous metrics snapshot,
 * maintenance phase machines.
 */
struct CheckpointParticipants
{
    Network *net = nullptr;
    std::vector<ClosedLoopDriver *> closedDrivers;
    std::vector<OpenLoopDriver *> openDrivers;
    FaultInjector *injector = nullptr;
    FaultCampaign *campaign = nullptr;
    DiagnosisEngine *diagnosis = nullptr;
};

/** FNV-1a over raw bytes (the footer checksum). */
std::uint64_t checkpointChecksum(const std::uint8_t *data,
                                 std::size_t size);

/** checkpointChecksum over a canonical config string: save and
 *  restore must agree on it or restore refuses. Callers building the
 *  string must exclude engine-thread counts (restoring into a
 *  different thread count is supported and byte-identical). */
inline std::uint64_t
checkpointDigest(const std::string &canonical)
{
    return checkpointChecksum(
        reinterpret_cast<const std::uint8_t *>(canonical.data()),
        canonical.size());
}

/** Append the whole-file integrity footer over everything already
 *  in `bytes`. saveCheckpointBytes does this itself; exposed so the
 *  fuzz harness and corpus tooling can build footer-valid inputs. */
void appendCheckpointFooter(std::vector<std::uint8_t> &bytes);

/**
 * Verify the trailing integrity footer: footer magic present, the
 * recorded payload length matches the file size, and the FNV-1a
 * checksum over the payload matches. Runs before ANY section
 * parsing, so a checkpoint truncated at any byte — or bit-flipped
 * anywhere — is rejected without touching the target instance.
 * Returns "" and fills `payload_size` (size minus footer) on
 * success, else an error message.
 */
std::string verifyCheckpointFooter(const std::uint8_t *data,
                                   std::size_t size,
                                   std::size_t *payload_size);

/**
 * Test/fault-injection hook for the durable write path: when
 * `max_bytes` is non-negative, the next writeCheckpointFile stops
 * after writing that many payload bytes to the temporary file and
 * either fails the write (abort_process == false: the partial temp
 * file is unlinked and an error returned, the final path is never
 * touched) or aborts the process mid-write (abort_process == true:
 * what the METRO_CRASH_AT_WRITE_BYTE environment variable arms —
 * the torture harness's crash-during-checkpoint injection). Pass -1
 * to clear. The hook is one-shot: it clears itself when it fires.
 */
void setCheckpointWriteFault(long long max_bytes,
                             bool abort_process);

/** Serialize to bytes. Flushes scheduler stats first (syncStats),
 *  so call only between cycles — in practice at a window boundary,
 *  where the uninterrupted run takes the same snapshot. */
std::vector<std::uint8_t>
saveCheckpointBytes(std::uint64_t config_digest,
                    const CheckpointParticipants &parts,
                    const std::vector<std::uint8_t> &harness_blob = {});

/**
 * Restore from bytes into a freshly built, finalized instance (same
 * topology/options/seed as the saver). Returns "" on success, else
 * an error message; on error the instance state is unspecified and
 * must be discarded. `harness_blob`, when non-null, receives the
 * saved harness section.
 */
std::string
restoreCheckpointBytes(const std::uint8_t *data, std::size_t size,
                       std::uint64_t config_digest,
                       const CheckpointParticipants &parts,
                       std::vector<std::uint8_t> *harness_blob =
                           nullptr);

/**
 * File wrappers. Return "" on success, else an error message.
 *
 * writeCheckpointFile is crash-safe: it writes to `<path>.tmp`,
 * fsyncs, and atomically renames onto `path` (then fsyncs the
 * containing directory), so no reader ever observes a partial
 * checkpoint at the final path — a crash mid-write leaves at worst
 * a stale `.tmp` and the previous checkpoint intact. On any write
 * failure the partial temporary file is unlinked.
 * @{
 */
std::string
writeCheckpointFile(const std::string &path,
                    std::uint64_t config_digest,
                    const CheckpointParticipants &parts,
                    const std::vector<std::uint8_t> &harness_blob =
                        {});

std::string
readCheckpointFile(const std::string &path,
                   std::uint64_t config_digest,
                   const CheckpointParticipants &parts,
                   std::vector<std::uint8_t> *harness_blob = nullptr);
/** @} */

/** The tmp+fsync+rename write path writeCheckpointFile uses, for
 *  already-serialized bytes (the retention store writes through
 *  this too). Returns "" on success. */
std::string
writeCheckpointBytesDurably(const std::string &path,
                            const std::vector<std::uint8_t> &bytes);

} // namespace metro

#endif // METRO_SERVE_CHECKPOINT_HH
