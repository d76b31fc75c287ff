/**
 * @file
 * Sweep journal read/write (see journal.hh for the layout and commit
 * protocol). The record format is a fixed-field single-line JSON the
 * writer below is the only producer of, so the loader is a sequential
 * field scanner, not a general JSON parser; any line it cannot scan is
 * treated as an uncommitted tail and dropped.
 */
#include "cimloop/dse/journal.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "cimloop/common/error.hh"
#include "../detail.hh"

namespace cimloop::dse {

AppendFile::~AppendFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
AppendFile::open(const std::string& path, bool truncate)
{
    CIM_ASSERT(fd_ < 0, "AppendFile is single-open");
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
}

bool
AppendFile::write(const std::string& data)
{
    if (fd_ < 0)
        return false;
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(fd_, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
AppendFile::sync()
{
    if (fd_ < 0)
        return false;
    int rc;
    do {
        rc = ::fsync(fd_);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

namespace {

constexpr int kJournalVersion = 1;

bool
journalFsyncEnabled()
{
    const char* env = std::getenv("CIMLOOP_JOURNAL_NO_FSYNC");
    return env == nullptr || std::strcmp(env, "1") != 0;
}

/** Sequential scanner over one journal line. */
struct LineScanner
{
    const std::string& s;
    std::size_t pos = 0;

    bool
    lit(const char* text)
    {
        const std::size_t len = std::string::traits_type::length(text);
        if (s.compare(pos, len, text) != 0)
            return false;
        pos += len;
        return true;
    }

    bool
    u64(std::size_t& out)
    {
        if (pos >= s.size() || s[pos] < '0' || s[pos] > '9')
            return false;
        char* end = nullptr;
        out = static_cast<std::size_t>(
            std::strtoull(s.c_str() + pos, &end, 10));
        pos = static_cast<std::size_t>(end - s.c_str());
        return true;
    }

    bool
    num(double& out)
    {
        char* end = nullptr;
        out = std::strtod(s.c_str() + pos, &end);
        if (end == s.c_str() + pos)
            return false;
        pos = static_cast<std::size_t>(end - s.c_str());
        return true;
    }

    /** Parses a quoted, jsonEscape()d string (escape-aware, so field
     *  markers inside the payload cannot confuse the scanner). */
    bool
    str(std::string& out)
    {
        if (!lit("\""))
            return false;
        std::string raw;
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '\\') {
                if (pos + 1 >= s.size())
                    return false;
                raw += c;
                raw += s[pos + 1];
                pos += 2;
                continue;
            }
            if (c == '"') {
                ++pos;
                out = detail::jsonUnescape(raw);
                return true;
            }
            raw += c;
            ++pos;
        }
        return false;
    }
};

std::string
recordLine(const PointResult& pr)
{
    std::ostringstream oss;
    oss << "{\"i\":" << pr.point.index << ",\"st\":\""
        << pointStatusName(pr.status)
        << "\",\"eng\":" << (pr.engineTouched ? 1 : 0) << ",\"d\":\""
        << detail::jsonEscape(pr.statusDetail) << "\",\"m\":[";
    for (std::size_t k = 0; k < kJournalMetricCount; ++k)
        oss << (k ? "," : "") << detail::fmtFull(pr.*kPointMetrics[k].value);
    oss << "]}";
    return oss.str();
}

bool
parseRecordLine(const std::string& line, JournalRecord& rec)
{
    LineScanner sc{line};
    std::size_t eng = 0;
    std::string st;
    if (!sc.lit("{\"i\":") || !sc.u64(rec.index))
        return false;
    if (!sc.lit(",\"st\":") || !sc.str(st))
        return false;
    if (!sc.lit(",\"eng\":") || !sc.u64(eng))
        return false;
    if (!sc.lit(",\"d\":") || !sc.str(rec.statusDetail))
        return false;
    if (!sc.lit(",\"m\":["))
        return false;
    for (std::size_t k = 0; k < kJournalMetricCount; ++k) {
        if (k && !sc.lit(","))
            return false;
        if (!sc.num(rec.metrics[k]))
            return false;
    }
    if (!sc.lit("]}"))
        return false;
    rec.engineTouched = eng != 0;
    if (st == "ok")
        rec.status = PointStatus::Ok;
    else if (st == "failed")
        rec.status = PointStatus::Failed;
    else
        return false;
    return true;
}

std::string
headerLine(const std::string& fingerprint, std::size_t points,
           std::size_t chunkSize, const std::string& name)
{
    std::ostringstream oss;
    oss << "{\"cimloop_sweep_journal\":" << kJournalVersion
        << ",\"fingerprint\":\"" << detail::jsonEscape(fingerprint)
        << "\",\"points\":" << points << ",\"chunk_size\":" << chunkSize
        << ",\"name\":\"" << detail::jsonEscape(name) << "\"}";
    return oss.str();
}

} // namespace

SweepJournal::SweepJournal(std::string dir, std::string fingerprint,
                           std::size_t points, std::size_t chunkSize,
                           const std::string& sweepName)
    : dir_(std::move(dir)), chunkSize_(chunkSize),
      fsync_(journalFsyncEnabled())
{
    CIM_ASSERT(chunkSize_ > 0, "sweep journal chunk size must be > 0");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        CIM_FATAL("cannot create sweep journal directory '", dir_,
                  "': ", ec.message());
    }
    const std::string manifestPath = dir_ + "/manifest.jsonl";
    const std::string resultsPath = dir_ + "/results.jsonl";
    const bool existing = std::filesystem::exists(manifestPath);
    if (existing) {
        load(fingerprint, points, chunkSize, sweepName);
        resultsOut_.open(resultsPath, /*truncate=*/false);
        manifestOut_.open(manifestPath, /*truncate=*/false);
    } else {
        resultsOut_.open(resultsPath, /*truncate=*/true);
        manifestOut_.open(manifestPath, /*truncate=*/true);
        if (manifestOut_.isOpen()) {
            const bool ok =
                manifestOut_.write(headerLine(fingerprint, points,
                                              chunkSize, sweepName) +
                                   '\n') &&
                (!fsync_ || manifestOut_.sync());
            if (!ok) {
                CIM_FATAL("cannot write sweep journal header to '",
                          manifestPath, "'");
            }
        }
    }
    if (!resultsOut_.isOpen() || !manifestOut_.isOpen()) {
        CIM_FATAL("cannot open sweep journal files under '", dir_,
                  "'");
    }
}

void
SweepJournal::load(const std::string& fingerprint, std::size_t points,
                   std::size_t chunkSize, const std::string& sweepName)
{
    (void)sweepName; // the header's name is informational only
    const std::string manifestPath = dir_ + "/manifest.jsonl";
    std::ifstream manifest(manifestPath);
    if (!manifest) {
        CIM_FATAL("cannot read sweep journal manifest '", manifestPath,
                  "'");
    }
    std::string line;
    if (!std::getline(manifest, line)) {
        CIM_FATAL("'", manifestPath,
                  "' is empty — not a cimloop sweep journal");
    }
    {
        LineScanner sc{line};
        std::size_t version = 0, hdrPoints = 0, hdrChunk = 0;
        std::string hdrFp, hdrName;
        const bool ok = sc.lit("{\"cimloop_sweep_journal\":") &&
                        sc.u64(version) &&
                        sc.lit(",\"fingerprint\":") && sc.str(hdrFp) &&
                        sc.lit(",\"points\":") && sc.u64(hdrPoints) &&
                        sc.lit(",\"chunk_size\":") && sc.u64(hdrChunk) &&
                        sc.lit(",\"name\":") && sc.str(hdrName) &&
                        sc.lit("}");
        if (!ok) {
            CIM_FATAL("'", manifestPath,
                      "' does not start with a cimloop sweep journal "
                      "header");
        }
        if (version != static_cast<std::size_t>(kJournalVersion)) {
            CIM_FATAL("sweep journal '", dir_, "' has version ",
                      version, "; this build reads version ",
                      kJournalVersion);
        }
        if (hdrFp != fingerprint) {
            CIM_FATAL("sweep journal '", dir_,
                      "' was written for a different spec "
                      "(fingerprint ", hdrFp, ", current ", fingerprint,
                      "); use a fresh --resume directory or rerun the "
                      "original spec");
        }
        if (hdrPoints != points) {
            CIM_FATAL("sweep journal '", dir_, "' covers ", hdrPoints,
                      " points but the spec enumerates ", points);
        }
        if (hdrChunk != chunkSize) {
            CIM_FATAL("sweep journal '", dir_,
                      "' was written with --chunk-size ", hdrChunk,
                      "; resume with the same chunk size (got ",
                      chunkSize, ")");
        }
    }
    // Commit lines. A line the scanner rejects is an append that was
    // cut short by a kill; nothing after it can be committed either, so
    // stop there.
    while (std::getline(manifest, line)) {
        LineScanner sc{line};
        std::size_t chunk = 0, from = 0, to = 0;
        const bool ok = sc.lit("{\"chunk\":") && sc.u64(chunk) &&
                        sc.lit(",\"from\":") && sc.u64(from) &&
                        sc.lit(",\"to\":") && sc.u64(to) &&
                        sc.lit("}");
        if (!ok)
            break;
        const std::size_t expectFrom = chunk * chunkSize_;
        const std::size_t expectTo =
            std::min(points, expectFrom + chunkSize_);
        if (from != expectFrom || to != expectTo || to > points) {
            CIM_FATAL("sweep journal '", dir_, "' commit for chunk ",
                      chunk, " covers [", from, ", ", to,
                      ") but the grid expects [", expectFrom, ", ",
                      expectTo, ") — journal corrupt");
        }
        completed_.insert(chunk);
    }
    // Result records: keep the last occurrence of each index (a chunk
    // whose first attempt was killed mid-write gets re-executed and
    // re-journaled), then drop everything outside committed ranges.
    std::ifstream results(dir_ + "/results.jsonl");
    while (results && std::getline(results, line)) {
        JournalRecord rec;
        if (!parseRecordLine(line, rec))
            continue;
        if (rec.index >= points)
            continue;
        records_[rec.index] = std::move(rec);
    }
    for (auto it = records_.begin(); it != records_.end();) {
        if (completed_.count(it->first / chunkSize_) == 0)
            it = records_.erase(it);
        else
            ++it;
    }
}

const JournalRecord*
SweepJournal::record(std::size_t index) const
{
    auto it = records_.find(index);
    return it == records_.end() ? nullptr : &it->second;
}

void
SweepJournal::appendChunk(std::size_t chunk, std::size_t from,
                          std::size_t to,
                          const std::vector<PointResult>& results)
{
    CIM_ASSERT(results.size() == to - from,
               "journal chunk results must cover [from, to)");
    if (completed_.count(chunk))
        return;
    // Write-ahead ordering: the chunk's records reach stable storage
    // before the manifest commit line does, so a durable commit line
    // always implies durable records. One buffered write per file keeps
    // the syscall count at two writes + two fsyncs per chunk.
    std::string block;
    for (const PointResult& pr : results) {
        if (pr.status == PointStatus::Skipped)
            continue;
        block += recordLine(pr);
        block += '\n';
    }
    if (!resultsOut_.write(block) || (fsync_ && !resultsOut_.sync())) {
        CIM_FATAL("cannot append to sweep journal '", dir_,
                  "/results.jsonl'");
    }
    std::ostringstream commit;
    commit << "{\"chunk\":" << chunk << ",\"from\":" << from
           << ",\"to\":" << to << "}\n";
    if (!manifestOut_.write(commit.str()) ||
        (fsync_ && !manifestOut_.sync())) {
        CIM_FATAL("cannot append to sweep journal '", dir_,
                  "/manifest.jsonl'");
    }
    completed_.insert(chunk);
}

} // namespace cimloop::dse
