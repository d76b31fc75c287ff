/**
 * @file
 * The on-disk sweep journal behind checkpoint/resume (--resume DIR).
 *
 * Layout (one directory per sweep):
 *
 *   manifest.jsonl   header line {"cimloop_sweep_journal": 1,
 *                    "fingerprint": "<specFingerprint>", "points": n,
 *                    "chunk_size": c, "name": "..."} followed by one
 *                    commit line {"chunk": k, "from": a, "to": b} per
 *                    completed chunk
 *   results.jsonl    one record per non-skipped point of every
 *                    committed chunk, in grid order
 *
 * Commit protocol: a chunk's result lines are written and fsync'd
 * BEFORE its manifest commit line, and the manifest is fsync'd after —
 * write-ahead ordering, so a kill (including kill -9 or power loss) at
 * any instant leaves at worst an uncommitted tail in results.jsonl.
 * The loader keeps only records inside committed ranges and silently
 * drops the rest (a re-executed chunk rewrites them; the last
 * occurrence of an index wins). Tests that churn many tiny journals
 * and don't need crash durability can set CIMLOOP_JOURNAL_NO_FSYNC=1
 * to skip the fsyncs (the writes still happen; only the durability
 * barrier is dropped).
 *
 * Skipped points are not journaled: validity is a pure function of
 * (spec, index) and is re-derived on load. A point that is valid yet
 * has no record inside a committed range means the journal and the
 * spec disagree — fatal, like a fingerprint mismatch.
 */
#ifndef CIMLOOP_DSE_JOURNAL_HH
#define CIMLOOP_DSE_JOURNAL_HH

#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cimloop/dse/dse.hh"

namespace cimloop::dse {

/** Number of metric doubles a journal record carries (kPointMetrics,
 *  in order). */
constexpr std::size_t kJournalMetricCount = std::size(kPointMetrics);

/**
 * Append-only POSIX-fd writer. The journal needs real fsync for its
 * commit protocol, and std::ofstream has no portable way to reach the
 * file descriptor — flush() only moves bytes into the OS page cache,
 * which a power loss or kill -9 can drop.
 */
class AppendFile
{
  public:
    AppendFile() = default;
    ~AppendFile();
    AppendFile(const AppendFile&) = delete;
    AppendFile& operator=(const AppendFile&) = delete;

    /** Opens @p path for appending (O_TRUNC when @p truncate). */
    void open(const std::string& path, bool truncate);

    bool isOpen() const { return fd_ >= 0; }

    /** Appends @p data whole; false on any short write or error. */
    bool write(const std::string& data);

    /** fsync(2); false on error. */
    bool sync();

  private:
    int fd_ = -1;
};

/** One journaled (non-skipped) point: everything the exporters read
 *  that cannot be re-derived from (spec, index). */
struct JournalRecord
{
    std::size_t index = 0;
    PointStatus status = PointStatus::Failed;
    bool engineTouched = false;
    std::string statusDetail;
    double metrics[kJournalMetricCount] = {0, 0, 0, 0, 0, 0, 0};
};

/**
 * Opens (or creates) the journal at @p dir for a sweep with the given
 * fingerprint / grid size / chunk size. An existing manifest whose
 * header disagrees on any of the three is fatal — resuming must never
 * merge results from a different spec or chunking.
 */
class SweepJournal
{
  public:
    SweepJournal(std::string dir, std::string fingerprint,
                 std::size_t points, std::size_t chunkSize,
                 const std::string& sweepName);

    /** True when chunk @p chunk was committed by a previous run. */
    bool chunkCompleted(std::size_t chunk) const
    {
        return completed_.count(chunk) != 0;
    }

    /** The loaded record for point @p index, or nullptr (skipped
     *  points have no record). Only committed chunks have records. */
    const JournalRecord* record(std::size_t index) const;

    /**
     * Commits chunk @p chunk covering grid range [from, to): writes
     * one record per non-skipped result and fsyncs the results file,
     * then appends the manifest commit line and fsyncs the manifest —
     * the commit line durably implies its records are durable.
     * CIMLOOP_JOURNAL_NO_FSYNC=1 skips both fsyncs.
     */
    void appendChunk(std::size_t chunk, std::size_t from, std::size_t to,
                     const std::vector<PointResult>& results);

    std::size_t completedChunks() const { return completed_.size(); }
    const std::string& dir() const { return dir_; }

  private:
    void load(const std::string& fingerprint, std::size_t points,
              std::size_t chunkSize, const std::string& sweepName);

    std::string dir_;
    std::size_t chunkSize_ = 0;
    bool fsync_ = true; //!< off via CIMLOOP_JOURNAL_NO_FSYNC=1
    std::set<std::size_t> completed_; //!< committed chunk ids
    std::map<std::size_t, JournalRecord> records_; //!< by point index
    AppendFile resultsOut_;
    AppendFile manifestOut_;
};

} // namespace cimloop::dse

#endif // CIMLOOP_DSE_JOURNAL_HH
