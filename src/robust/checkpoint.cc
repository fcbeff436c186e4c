#include "robust/checkpoint.h"

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault.h"
#include "util/logging.h"

namespace fs = std::filesystem;

namespace lrd {

namespace {

constexpr std::array<uint8_t, 8> kMagic = {'L', 'R', 'D', 'C',
                                           'K', 'P', 'T', '1'};
constexpr size_t kHeaderSize = 8 + 4 + 8 + 4;

void
putLe32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putLe64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
getLe32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

Status
writeAll(int fd, const uint8_t *data, size_t n, const std::string &path)
{
    size_t done = 0;
    while (done < n) {
        const ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0)
            return Status(StatusCode::Internal, "ckpt.write",
                          "write failed for " + path);
        done += static_cast<size_t>(w);
    }
    return Status();
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t n)
{
    // Bitwise reflected CRC32; checkpoints are small enough (model
    // weights a few MB) that a table-free loop is not a bottleneck.
    uint32_t crc = 0xFFFFFFFFU;
    for (size_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xEDB88320U & (0U - (crc & 1U)));
    }
    return crc ^ 0xFFFFFFFFU;
}

uint32_t
crc32(const std::vector<uint8_t> &bytes)
{
    return crc32(bytes.data(), bytes.size());
}

std::string
checkpointPrevPath(const std::string &path)
{
    return path + ".prev";
}

std::string
checkpointTmpPath(const std::string &path)
{
    // lrd-lint: allow(hot-path-alloc) checkpoint writes are file I/O bound
    return path + "." + std::to_string(::getpid()) + ".tmp";
}

bool
processAlive(int64_t pid)
{
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM; // Alive, just not ours to signal.
}

int64_t
sweepOrphanCheckpointTmps(const std::string &dir)
{
    static Counter *orphansSwept =
        MetricsRegistry::instance().counter("checkpoint.orphanTmpSwept");
    std::error_code ec;
    int64_t swept = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        // Match "<anything>.<digits>.tmp" and extract the writer pid.
        if (name.size() < 5 || name.compare(name.size() - 4, 4, ".tmp") != 0)
            continue;
        const size_t pidEnd = name.size() - 4;
        const size_t pidDot = name.rfind('.', pidEnd - 1);
        if (pidDot == std::string::npos || pidDot + 1 == pidEnd)
            continue;
        const std::string pidText = name.substr(pidDot + 1,
                                                pidEnd - pidDot - 1);
        if (pidText.find_first_not_of("0123456789") != std::string::npos)
            continue;
        const int64_t pid = std::strtoll(pidText.c_str(), nullptr, 10);
        if (pid == static_cast<int64_t>(::getpid()) || processAlive(pid))
            continue; // Our own, or a live sibling's in-flight write.
        warn("checkpoint: sweeping orphaned temp file "
             + entry.path().string() + " (writer pid "
             + std::to_string(pid) + " is gone)");
        std::error_code rmEc;
        if (fs::remove(entry.path(), rmEc)) {
            orphansSwept->inc();
            ++swept;
        }
    }
    return swept;
}

Status
writeCheckpoint(const std::string &path, uint32_t version,
                const std::vector<uint8_t> &payload)
{
    LRD_TRACE_SPAN("ckpt.write");
    static Counter *writes =
        MetricsRegistry::instance().counter("checkpoint.writes");

    if (faultAt("ckpt.write", FaultKind::Alloc))
        return Status(StatusCode::ResourceExhausted, "ckpt.write",
                      "injected allocation failure");

    // The tmp name is pid-unique, so another live process's in-flight
    // write in the same directory is never touched. A leftover of one
    // of our own interrupted writes is truncated by the open below and
    // renamed away; dead writers' orphans are reclaimed separately by
    // sweepOrphanCheckpointTmps().
    const std::string tmp = checkpointTmpPath(path);

    std::vector<uint8_t> blob;
    blob.reserve(kHeaderSize + payload.size());
    blob.insert(blob.end(), kMagic.begin(), kMagic.end());
    putLe32(blob, version);
    putLe64(blob, payload.size());
    putLe32(blob, crc32(payload));
    blob.insert(blob.end(), payload.begin(), payload.end());

    // Injected corruption happens after the CRC is computed, so the
    // damage is detectable on read — exactly like a real partial
    // write or medium error.
    if (faultAt("ckpt.write", FaultKind::BitFlip) && !payload.empty())
        blob[kHeaderSize + payload.size() / 2] ^= 0x10;
    size_t writeLen = blob.size();
    if (faultAt("ckpt.write", FaultKind::Truncate))
        writeLen = kHeaderSize + payload.size() / 2;

    // Injected kill mid-write: leave a half-written .tmp behind (never
    // renamed into place) exactly as a real killed writer would — the
    // next write truncates and replaces it.
    if (faultAt("ckpt.write", FaultKind::Cancel)) {
        const int tmpFd =
            ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (tmpFd >= 0) {
            static_cast<void>(writeAll(tmpFd, blob.data(),
                                       kHeaderSize + payload.size() / 2,
                                       tmp));
            ::close(tmpFd);
        }
        return Status(StatusCode::Cancelled, "ckpt.write",
                      "injected kill during checkpoint write (stale .tmp "
                      "left behind)");
    }

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return Status(StatusCode::Internal, "ckpt.write",
                      "cannot open " + tmp);
    Status ws = writeAll(fd, blob.data(), writeLen, tmp);
    if (ws.ok() && ::fsync(fd) != 0)
        ws = Status(StatusCode::Internal, "ckpt.write",
                    "fsync failed for " + tmp);
    ::close(fd);
    if (!ws.ok())
        return ws;

    std::error_code ec;
    if (fs::exists(path, ec))
        fs::rename(path, checkpointPrevPath(path), ec);
    fs::rename(tmp, path, ec);
    if (ec)
        return Status(StatusCode::Internal, "ckpt.write",
                      "rename into " + path + " failed: " + ec.message());

    // Persist the rename itself: without an fsync of the parent
    // directory a crash right after the rename can roll the directory
    // entry back to the old checkpoint (or to nothing). Best-effort —
    // some filesystems refuse directory fsync.
    fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    const int dirFd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirFd >= 0) {
        if (::fsync(dirFd) != 0)
            warn("checkpoint: directory fsync failed for "
                 + parent.string());
        ::close(dirFd);
    } else {
        warn("checkpoint: cannot open parent directory " + parent.string()
             + " for fsync");
    }
    writes->inc();
    return Status();
}

Result<std::vector<uint8_t>>
readCheckpoint(const std::string &path, uint32_t version)
{
    LRD_TRACE_SPAN("ckpt.read");
    static Counter *corrupt =
        MetricsRegistry::instance().counter("checkpoint.corrupt");

    if (faultAt("ckpt.read", FaultKind::Alloc))
        return Status(StatusCode::ResourceExhausted, "ckpt.read",
                      "injected allocation failure");
    if (faultAt("ckpt.read", FaultKind::Cancel))
        return Status(StatusCode::Cancelled, "ckpt.read",
                      "injected cancellation during checkpoint read");

    std::ifstream ifs(path, std::ios::binary | std::ios::ate);
    if (!ifs)
        return Status(StatusCode::NotFound, "ckpt.read",
                      "no checkpoint at " + path);
    const auto size = static_cast<size_t>(ifs.tellg());
    ifs.seekg(0);
    std::vector<uint8_t> blob(size);
    ifs.read(reinterpret_cast<char *>(blob.data()),
             static_cast<std::streamsize>(size));
    if (!ifs)
        return Status(StatusCode::DataLoss, "ckpt.read",
                      "short read from " + path);

    if (size < kHeaderSize
        || !std::equal(kMagic.begin(), kMagic.end(), blob.begin())) {
        corrupt->inc();
        return Status(StatusCode::DataLoss, "ckpt.read",
                      path + " is not an lrd checkpoint (bad magic or "
                             "truncated header)");
    }
    const uint32_t gotVersion = getLe32(blob.data() + 8);
    if (gotVersion != version)
        return Status(StatusCode::InvalidArgument, "ckpt.read",
                      strCat(path, " has payload version ", gotVersion,
                             ", expected ", version));
    const uint64_t payloadSize = getLe64(blob.data() + 12);
    if (payloadSize != size - kHeaderSize) {
        corrupt->inc();
        return Status(StatusCode::DataLoss, "ckpt.read",
                      strCat(path, " truncated: header promises ",
                             payloadSize, " payload bytes, file has ",
                             size - kHeaderSize));
    }
    std::vector<uint8_t> payload(blob.begin()
                                     + static_cast<long>(kHeaderSize),
                                 blob.end());
    const uint32_t wantCrc = getLe32(blob.data() + 20);
    if (crc32(payload) != wantCrc) {
        corrupt->inc();
        return Status(StatusCode::DataLoss, "ckpt.read",
                      path + " failed its CRC32 check (corrupt payload)");
    }
    return payload;
}

Result<std::vector<uint8_t>>
readCheckpointWithFallback(const std::string &path, uint32_t version,
                           bool *usedFallback)
{
    static Counter *fallbacks =
        MetricsRegistry::instance().counter("checkpoint.fallbacks");
    if (usedFallback != nullptr)
        *usedFallback = false;
    Result<std::vector<uint8_t>> primary = readCheckpoint(path, version);
    if (primary.ok())
        return primary;
    Result<std::vector<uint8_t>> prev =
        readCheckpoint(checkpointPrevPath(path), version);
    if (prev.ok()) {
        warn("checkpoint: " + primary.status().toString()
             + "; using previous good checkpoint "
             + checkpointPrevPath(path));
        fallbacks->inc();
        if (usedFallback != nullptr)
            *usedFallback = true;
        return prev;
    }
    return primary;
}

} // namespace lrd
