// Checkpoint container format: byte-stream round-trips, corruption
// rejection (CRC, truncation, bad magic, wrong version, giant counts) and
// the temp-then-rename atomicity contract (docs/ROBUSTNESS.md).
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/dense_bitset.hpp"
#include "common/error.hpp"
#include "core/map_knowledge.hpp"
#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet::snapshot {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << path;
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

enum class Fruit : std::uint8_t { kApple, kBanana, kCherry };

TEST(ByteStreamTest, RoundTripsEveryScalarType) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.size(77);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello snapshot");
  w.blob({1, 2, 3});
  w.pod_vec(std::vector<std::uint32_t>{5, 6, 7});
  w.pod_vec(std::vector<double>{1.5, -2.5});
  w.scalar(Fruit::kCherry);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.size(), 77u);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  std::vector<std::uint32_t> ints;
  r.pod_vec(ints);
  EXPECT_EQ(ints, (std::vector<std::uint32_t>{5, 6, 7}));
  std::vector<double> doubles;
  r.pod_vec(doubles);
  EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(r.scalar<Fruit>(), Fruit::kCherry);
  EXPECT_TRUE(r.done());
}

TEST(ByteStreamTest, TruncatedReadNamesTheOffset) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  try {
    r.u64();
    FAIL() << "read past the end succeeded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 4"), std::string::npos)
        << e.what();
  }
}

TEST(ByteStreamTest, GiantCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.size(static_cast<std::size_t>(1) << 60);  // absurd element count
  ByteReader r(w.bytes());
  EXPECT_THROW(r.counted(8), ConfigError);
  ByteReader r2(w.bytes());
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r2.pod_vec(v), ConfigError);
}

TEST(ByteStreamTest, ScalarRangeCheckCatchesNarrowingCorruption) {
  ByteWriter w;
  w.u64(0x1'0000'0000ull);  // does not fit a 32-bit NodeId
  ByteReader r(w.bytes());
  EXPECT_THROW(r.scalar<std::uint32_t>(), ConfigError);
}

TEST(ByteStreamTest, BadBooleanRejected) {
  ByteWriter w;
  w.u8(2);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.boolean(), ConfigError);
}

Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.identity = {"routing", 3, 2010, 120, 300};
  for (std::uint64_t run = 0; run < 3; ++run) {
    RunRecord record;
    record.step = 100 + run;
    ByteWriter w;
    w.u64(run * 17);
    w.str("payload-" + std::to_string(run));
    record.payload = w.take();
    ck.runs[run] = std::move(record);
  }
  return ck;
}

TEST(CheckpointFileTest, RoundTripsIdentityAndRunRecords) {
  const Checkpoint ck = sample_checkpoint();
  const std::string path = temp_path("roundtrip.snap");
  save_checkpoint(ck, path);
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.identity, ck.identity);
  ASSERT_EQ(loaded.runs.size(), ck.runs.size());
  for (const auto& [run, record] : ck.runs) {
    const auto it = loaded.runs.find(run);
    ASSERT_NE(it, loaded.runs.end());
    EXPECT_EQ(it->second.step, record.step);
    EXPECT_EQ(it->second.payload, record.payload);
  }
}

TEST(CheckpointFileTest, SaveLeavesNoTempFile) {
  const std::string path = temp_path("atomic.snap");
  save_checkpoint(sample_checkpoint(), path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "temp file left behind after save";
}

TEST(CheckpointFileTest, MissingFileRejected) {
  EXPECT_THROW(load_checkpoint(temp_path("never_written.snap")), ConfigError);
}

TEST(CheckpointFileTest, BadMagicRejected) {
  const std::string path = temp_path("badmagic.snap");
  std::vector<std::uint8_t> junk(64, 0x5A);
  write_bytes(path, junk);
  try {
    load_checkpoint(path);
    FAIL() << "bad magic accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileTest, WrongVersionRejected) {
  const std::string path = temp_path("badversion.snap");
  save_checkpoint(sample_checkpoint(), path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[8] = 0xFF;  // version field follows the 8-byte magic
  write_bytes(path, bytes);
  try {
    load_checkpoint(path);
    FAIL() << "wrong version accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileTest, VersionOneCheckpointRejected) {
  // Version 1 carried a separate second-hand edge set per mapping agent;
  // version 2 dropped it, so old files must fail loudly, not misparse.
  const std::string path = temp_path("v1.snap");
  save_checkpoint(sample_checkpoint(), path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[8] = 1;
  bytes[9] = bytes[10] = bytes[11] = 0;
  write_bytes(path, bytes);
  try {
    load_checkpoint(path);
    FAIL() << "version-1 checkpoint accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileTest, EveryTruncationPointRejected) {
  const std::string path = temp_path("trunc.snap");
  save_checkpoint(sample_checkpoint(), path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  // Chop the file at a spread of lengths (including mid-header and
  // mid-chunk): none may load, none may crash.
  for (std::size_t len = 0; len < bytes.size();
       len += 1 + bytes.size() / 23) {
    const std::string cut = temp_path("trunc_cut.snap");
    write_bytes(cut, {bytes.begin(), bytes.begin() + len});
    EXPECT_THROW(load_checkpoint(cut), ConfigError) << "length " << len;
  }
}

TEST(CheckpointFileTest, EveryFlippedByteRejectedOrHarmless) {
  const std::string path = temp_path("flip.snap");
  save_checkpoint(sample_checkpoint(), path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  // Flip one byte at a stride of positions. Each flip must either be
  // caught (ConfigError — the expected case: every payload byte is under
  // a CRC) or at least never invoke UB / crash.
  std::size_t rejected = 0, flips = 0;
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 53) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0xFF;
    const std::string cut = temp_path("flip_cut.snap");
    write_bytes(cut, mutated);
    ++flips;
    try {
      (void)load_checkpoint(cut);
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  // The container has no slack bytes: every single-byte flip lands in the
  // magic, the version, a length, a CRC or CRC-covered payload.
  EXPECT_EQ(rejected, flips);
}

TEST(CheckpointFileTest, DuplicateRunChunkRejected) {
  // Hand-assemble a file whose run chunk appears twice: parsing must
  // reject the duplicate key instead of silently keeping either record.
  const std::string path = temp_path("dup.snap");
  Checkpoint ck = sample_checkpoint();
  save_checkpoint(ck, path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  // Locate the first run chunk: header is magic(8) + version(4) +
  // chunk_count(4); each chunk is id(4) + len(8) + crc(4) + payload.
  ByteReader r(bytes.data(), bytes.size());
  r.raw(8);
  (void)r.u32();
  const std::size_t count_pos = r.position();
  const std::uint32_t chunk_count = r.u32();
  ASSERT_GE(chunk_count, 2u);
  // Skip the identity chunk, then capture the first run chunk's extent.
  (void)r.u32();
  const std::size_t id_len = r.size();
  (void)r.u32();
  r.raw(id_len);
  const std::size_t run_chunk_begin = r.position();
  (void)r.u32();
  const std::size_t run_len = r.size();
  (void)r.u32();
  r.raw(run_len);
  const std::size_t run_chunk_end = r.position();
  // Append a copy of that chunk and bump the chunk count.
  std::vector<std::uint8_t> dup(bytes.begin() + run_chunk_begin,
                                bytes.begin() + run_chunk_end);
  bytes.insert(bytes.end(), dup.begin(), dup.end());
  const std::uint32_t new_count = chunk_count + 1;
  for (int i = 0; i < 4; ++i)
    bytes[count_pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(new_count >> (8 * i));
  write_bytes(path, bytes);
  try {
    load_checkpoint(path);
    FAIL() << "duplicate run chunk accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointerTest, IdentityMismatchRejectedAtConstruction) {
  const std::string path = temp_path("identity.snap");
  save_checkpoint(sample_checkpoint(), path);
  const ExperimentIdentity right{"routing", 3, 2010, 120, 300};
  // Matching identity constructs fine.
  EXPECT_NO_THROW(ExperimentCheckpointer(right, "", 50, path));
  // Any drifted field — kind, runs, seed base, scale, step budget — fails.
  for (const ExperimentIdentity& wrong :
       {ExperimentIdentity{"mapping", 3, 2010, 120, 300},
        ExperimentIdentity{"routing", 4, 2010, 120, 300},
        ExperimentIdentity{"routing", 3, 2011, 120, 300},
        ExperimentIdentity{"routing", 3, 2010, 121, 300},
        ExperimentIdentity{"routing", 3, 2010, 120, 301}}) {
    EXPECT_THROW(ExperimentCheckpointer(wrong, "", 50, path), ConfigError);
  }
}

TEST(CheckpointerTest, SaveDueHonoursPeriodAndResumePoint) {
  const std::string path = temp_path("savedue.snap");
  ExperimentCheckpointer saver({"routing", 1, 7, 10, 100}, path, 25, "");
  RunCheckpointPort port = saver.port(0);
  EXPECT_FALSE(port.resuming());
  EXPECT_FALSE(port.save_due(0)) << "step 0 is the initial state";
  EXPECT_FALSE(port.save_due(24));
  EXPECT_TRUE(port.save_due(25));
  EXPECT_TRUE(port.save_due(50));
  port.save(25, [](ByteWriter& w) { w.u64(99); });
  // Resume from that file: the resumed step must not immediately re-save.
  ExperimentCheckpointer resumer({"routing", 1, 7, 10, 100}, path, 25, path);
  RunCheckpointPort rport = resumer.port(0);
  ASSERT_TRUE(rport.resuming());
  std::uint64_t restored = 0;
  EXPECT_EQ(rport.restore([&](ByteReader& r) { restored = r.u64(); }), 25u);
  EXPECT_EQ(restored, 99u);
  EXPECT_FALSE(rport.save_due(25)) << "that state is already on disk";
  EXPECT_TRUE(rport.save_due(50));
}

/// A MapKnowledge payload in the v2 layout with every size a parameter,
/// so each field can be mis-sized on its own.
struct KnowledgeLayout {
  std::size_t n = 4;
  std::size_t first_hand_bits = 16;
  std::size_t combined_bits = 16;
  std::size_t first_hand_visits = 4;
  std::size_t any_visits = 4;
  bool expiry = true;
  std::size_t recent_bits = 16;
  std::size_t learned_prev = 4;
  std::size_t learned_recent = 4;
};

std::vector<std::uint8_t> knowledge_payload(const KnowledgeLayout& l) {
  ByteWriter w;
  w.size(l.n);
  DenseBitset(l.first_hand_bits).save_state(w);
  DenseBitset(l.combined_bits).save_state(w);
  w.pod_vec(std::vector<std::int64_t>(l.first_hand_visits, kNeverVisited));
  w.pod_vec(std::vector<std::int64_t>(l.any_visits, kNeverVisited));
  w.boolean(l.expiry);
  w.size(0);
  DenseBitset(l.recent_bits).save_state(w);
  w.pod_vec(std::vector<std::int64_t>(l.learned_prev, kNeverVisited));
  w.pod_vec(std::vector<std::int64_t>(l.learned_recent, kNeverVisited));
  return w.take();
}

void expect_knowledge_rejected(const KnowledgeLayout& layout,
                               const std::string& what) {
  const std::vector<std::uint8_t> bytes = knowledge_payload(layout);
  ByteReader r(bytes);
  MapKnowledge k(layout.n);
  try {
    k.load_state(r);
    FAIL() << what << " accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(MapKnowledgeStateTest, WellFormedLayoutsLoad) {
  for (const bool expiry : {true, false}) {
    KnowledgeLayout layout;
    layout.expiry = expiry;
    if (!expiry)
      layout.recent_bits = layout.learned_prev = layout.learned_recent = 0;
    const std::vector<std::uint8_t> bytes = knowledge_payload(layout);
    ByteReader r(bytes);
    MapKnowledge k(layout.n);
    EXPECT_NO_THROW(k.load_state(r)) << "expiry=" << expiry;
    EXPECT_TRUE(r.done());
  }
}

TEST(MapKnowledgeStateTest, MisSizedEdgeSetsRejected) {
  KnowledgeLayout first_hand;
  first_hand.first_hand_bits = 25;
  expect_knowledge_rejected(first_hand, "first-hand set of 25 bits");
  KnowledgeLayout combined;
  combined.combined_bits = 9;
  expect_knowledge_rejected(combined, "combined set of 9 bits");
  KnowledgeLayout recent;
  recent.recent_bits = 64;
  expect_knowledge_rejected(recent, "hearsay set of 64 bits");
  KnowledgeLayout recent_without_expiry;
  recent_without_expiry.expiry = false;
  recent_without_expiry.learned_prev = 0;
  recent_without_expiry.learned_recent = 0;
  expect_knowledge_rejected(recent_without_expiry,
                            "hearsay set with expiry off");
}

TEST(MapKnowledgeStateTest, MisSizedVisitVectorsRejected) {
  KnowledgeLayout first_hand;
  first_hand.first_hand_visits = 3;
  expect_knowledge_rejected(first_hand, "3 first-hand visit times");
  KnowledgeLayout any;
  any.any_visits = 0;
  expect_knowledge_rejected(any, "empty any-visit vector");
}

TEST(MapKnowledgeStateTest, LearnedVisitsMustMatchExpiryState) {
  KnowledgeLayout short_prev;
  short_prev.learned_prev = 2;
  expect_knowledge_rejected(short_prev, "2 previous-epoch visit times");
  KnowledgeLayout empty_recent;
  empty_recent.learned_recent = 0;
  expect_knowledge_rejected(empty_recent,
                            "no current-epoch visits with expiry on");
  KnowledgeLayout stray;
  stray.expiry = false;
  stray.recent_bits = 0;
  stray.learned_recent = 0;
  expect_knowledge_rejected(stray, "previous-epoch visits with expiry off");
}

}  // namespace
}  // namespace agentnet::snapshot
