// The durability layer (docs/RESILIENCE.md, "Durability & crash recovery"):
// the sealed-blob envelope and atomic-write protocol (util/atomic_file.h),
// checkpointed/resumable exploration (reach/checkpoint.h), and the
// persistent ResultCache (svc/cache_persist.h). The recovery contract under
// test is uniform: corrupt durable state is counted, quarantined, and
// skipped — it may cost a resume or a cache hit, never a wrong answer and
// never the process.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/net_format.h"
#include "obs/metrics.h"
#include "petri/canonical.h"
#include "petri/net.h"
#include "reach/checkpoint.h"
#include "reach/reachability.h"
#include "svc/cache_persist.h"
#include "svc/result_cache.h"
#include "svc/service.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const char* tag) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("cipnet_store_") + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spew(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

PetriNet toggle_net(std::size_t k) {
  PetriNet net;
  for (std::size_t i = 0; i < k; ++i) {
    PlaceId a = net.add_place("a" + std::to_string(i), 1);
    PlaceId b = net.add_place("b" + std::to_string(i), 0);
    net.add_transition({a}, "t" + std::to_string(i), {b});
    net.add_transition({b}, "u" + std::to_string(i), {a});
  }
  return net;
}

// --- the wire helpers and the sealed envelope ------------------------------

TEST(Store, WireHelpersRoundTrip) {
  std::string out;
  store::put_u32(out, 0xdeadbeefu);
  store::put_u64(out, 0x0123456789abcdefULL);
  store::put_str(out, "hello");
  store::put_str(out, "");

  std::size_t pos = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::string s1, s2;
  ASSERT_TRUE(store::get_u32(out, pos, a));
  ASSERT_TRUE(store::get_u64(out, pos, b));
  ASSERT_TRUE(store::get_str(out, pos, s1));
  ASSERT_TRUE(store::get_str(out, pos, s2));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(pos, out.size());
}

TEST(Store, WireHelpersRefuseToReadPastTheEnd) {
  std::string out;
  store::put_u64(out, 42);
  store::put_str(out, "payload");
  // Every strict prefix must fail cleanly somewhere — never read past end.
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    const std::string prefix = out.substr(0, cut);
    std::size_t pos = 0;
    std::uint64_t v = 0;
    std::string s;
    const bool ok = store::get_u64(prefix, pos, v) &&
                    store::get_str(prefix, pos, s) && pos == prefix.size();
    EXPECT_FALSE(ok) << "prefix of " << cut << " bytes decoded cleanly";
  }
}

TEST(Store, SealedBlobRoundTripsAndReportsEveryCorruption) {
  const std::uint64_t magic = 0x31545345544e5043ULL;
  const std::string body = "the quick brown fox";
  const std::string sealed = store::seal_blob(magic, 3, body);

  std::string opened;
  std::string why;
  ASSERT_TRUE(store::open_blob(sealed, magic, 3, opened, why)) << why;
  EXPECT_EQ(opened, body);

  // Wrong magic.
  EXPECT_FALSE(store::open_blob(sealed, magic ^ 1, 3, opened, why));
  EXPECT_NE(why.find("magic"), std::string::npos) << why;
  // Version from the future.
  EXPECT_FALSE(store::open_blob(sealed, magic, 2, opened, why));
  EXPECT_NE(why.find("version"), std::string::npos) << why;
  // Every truncation point fails (short read / torn write).
  for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
    EXPECT_FALSE(
        store::open_blob(sealed.substr(0, cut), magic, 3, opened, why))
        << "truncated to " << cut << " bytes opened cleanly";
  }
  // A single flipped body byte trips the checksum.
  std::string flipped = sealed;
  flipped[sealed.size() - 12] ^= 0x40;
  EXPECT_FALSE(store::open_blob(flipped, magic, 3, opened, why));
  // Trailing garbage after the checksum is not silently ignored.
  EXPECT_FALSE(store::open_blob(sealed + "x", magic, 3, opened, why));
}

TEST(Store, AtomicWriteReplacesWholesaleAndLeavesNoTemp) {
  const fs::path dir = scratch_dir("atomic");
  const fs::path target = dir / "state.bin";
  store::write_file_atomic(target.string(), "first version");
  EXPECT_EQ(slurp(target), "first version");
  store::write_file_atomic(target.string(), "second, longer version");
  EXPECT_EQ(slurp(target), "second, longer version");
  // The protocol's temp file must not survive a successful replace.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  fs::remove_all(dir);
}

TEST(Store, ReadFileDistinguishesMissingFromPresent) {
  const fs::path dir = scratch_dir("read");
  EXPECT_FALSE(store::read_file((dir / "absent.bin").string()).has_value());
  spew(dir / "present.bin", "bytes");
  const auto bytes = store::read_file((dir / "present.bin").string());
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "bytes");
  fs::remove_all(dir);
}

TEST(Store, QuarantineRenamesEvidenceToBad) {
  const fs::path dir = scratch_dir("quarantine");
  spew(dir / "damaged.ckpt", "junk");
  const auto moved = store::quarantine_file((dir / "damaged.ckpt").string());
  ASSERT_TRUE(moved.has_value());
  EXPECT_FALSE(fs::exists(dir / "damaged.ckpt"));
  EXPECT_TRUE(fs::exists(dir / "damaged.ckpt.bad"));
  EXPECT_EQ(slurp(dir / "damaged.ckpt.bad"), "junk");
  fs::remove_all(dir);
}

// --- checkpoint encode/decode and the resume contract ----------------------

reach_detail::CheckpointImage sample_image() {
  reach_detail::CheckpointImage image;
  image.packed = false;
  image.net_hash = 0xfeedULL;
  image.cell_size = 4;
  image.places = 2;
  image.width = 2;
  image.state_count = 2;
  image.arena.assign(2 * 2 * 4, '\0');
  image.arena[0] = 1;  // state 0 = (1,0), state 1 = (0,1): 1-safe markings
  image.arena[12] = 1;
  image.edges = {{{TransitionId(0), StateId(1)}}, {}};
  image.frontier = {1};
  image.frontier_enabled = {{TransitionId(1)}};
  return image;
}

TEST(StoreCheckpoint, EncodeDecodeRoundTrips) {
  const reach_detail::CheckpointImage image = sample_image();
  const std::string body = reach_detail::encode_checkpoint(image);
  reach_detail::CheckpointImage back;
  std::string why;
  ASSERT_TRUE(reach_detail::decode_checkpoint(body, back, why)) << why;
  EXPECT_EQ(back.packed, image.packed);
  EXPECT_EQ(back.net_hash, image.net_hash);
  EXPECT_EQ(back.cell_size, image.cell_size);
  EXPECT_EQ(back.places, image.places);
  EXPECT_EQ(back.width, image.width);
  EXPECT_EQ(back.state_count, image.state_count);
  EXPECT_EQ(back.arena, image.arena);
  ASSERT_EQ(back.edges.size(), 2u);
  EXPECT_EQ(back.edges[0][0].to, StateId(1));
  ASSERT_EQ(back.frontier.size(), 1u);
  EXPECT_EQ(back.frontier[0], 1u);
  ASSERT_EQ(back.frontier_enabled.size(), 1u);
  EXPECT_EQ(back.frontier_enabled[0][0], TransitionId(1));
}

TEST(StoreCheckpoint, DecodeRejectsEveryTruncation) {
  const std::string body = reach_detail::encode_checkpoint(sample_image());
  reach_detail::CheckpointImage scratch;
  std::string why;
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        reach_detail::decode_checkpoint(body.substr(0, cut), scratch, why))
        << "prefix of " << cut << " bytes decoded cleanly";
  }
  EXPECT_FALSE(reach_detail::decode_checkpoint(body + "x", scratch, why));
}

TEST(StoreCheckpoint, DecodeRejectsInconsistentGeometry) {
  reach_detail::CheckpointImage image = sample_image();
  image.arena.pop_back();  // arena no longer state_count * width * cell_size
  reach_detail::CheckpointImage scratch;
  std::string why;
  EXPECT_FALSE(reach_detail::decode_checkpoint(
      reach_detail::encode_checkpoint(image), scratch, why));
  EXPECT_NE(why.find("arena"), std::string::npos) << why;
}

TEST(StoreCheckpoint, DecodeRejectsDuplicateFrontierIds) {
  // A crafted checksum-valid checkpoint repeating a frontier id would
  // expand that state twice on resume, appending duplicate edges.
  reach_detail::CheckpointImage image = sample_image();
  image.frontier = {1, 1};
  image.frontier_enabled = {{TransitionId(1)}, {TransitionId(1)}};
  reach_detail::CheckpointImage scratch;
  std::string why;
  EXPECT_FALSE(reach_detail::decode_checkpoint(
      reach_detail::encode_checkpoint(image), scratch, why));
  EXPECT_NE(why.find("duplicate frontier"), std::string::npos) << why;
}

TEST(StoreCheckpoint, DecodeRejectsExpandedStatesInTheFrontier) {
  // State 0 carries edges in sample_image, i.e. it was already expanded;
  // queueing it again would re-append them all.
  reach_detail::CheckpointImage image = sample_image();
  image.frontier = {0};
  image.frontier_enabled = {{TransitionId(0)}};
  reach_detail::CheckpointImage scratch;
  std::string why;
  EXPECT_FALSE(reach_detail::decode_checkpoint(
      reach_detail::encode_checkpoint(image), scratch, why));
  EXPECT_NE(why.find("already has edges"), std::string::npos) << why;
}

TEST(StoreCheckpoint, LoadReportsMissingCorruptAndOk) {
  const fs::path dir = scratch_dir("load");
  const std::string path = (dir / "ck.bin").string();

  EXPECT_EQ(reach_detail::load_checkpoint(path).status,
            reach_detail::LoadStatus::kMissing);

  spew(path, "not a sealed blob at all");
  const reach_detail::LoadResult corrupt = reach_detail::load_checkpoint(path);
  EXPECT_EQ(corrupt.status, reach_detail::LoadStatus::kCorrupt);
  EXPECT_FALSE(corrupt.why.empty());

  reach_detail::write_checkpoint(path, sample_image());
  const reach_detail::LoadResult ok = reach_detail::load_checkpoint(path);
  ASSERT_EQ(ok.status, reach_detail::LoadStatus::kOk);
  EXPECT_EQ(ok.image.state_count, 2u);
  fs::remove_all(dir);
}

TEST(StoreCheckpoint, ValidateRejectsForeignNetAndEngineMismatch) {
  const PetriNet net = toggle_net(1);  // 2 places: matches sample_image
  reach_detail::CheckpointImage image = sample_image();
  image.net_hash = canonical_hash(net);

  EXPECT_EQ(reach_detail::validate_checkpoint(image, net, /*packed=*/false),
            "");
  // A checkpoint of some other net must not seed this exploration.
  image.net_hash ^= 1;
  EXPECT_NE(reach_detail::validate_checkpoint(image, net, false), "");
  image.net_hash = canonical_hash(net);
  // Nor may a dense image seed a packed engine (or vice versa).
  EXPECT_NE(reach_detail::validate_checkpoint(image, net, true), "");
  // Nor an image whose geometry disagrees with the net.
  image.places = 7;
  EXPECT_NE(reach_detail::validate_checkpoint(image, net, false), "");
}

/// Mid-exploration checkpoint → resume must rebuild the *identical* graph.
/// The last periodic checkpoint of a completed run is exactly such a
/// snapshot (taken at the BFS loop head, work still in flight), so this
/// exercises the same path as a SIGKILL without killing the test binary —
/// resume_smoke.sh covers the real kill.
void check_resume_bit_identity(ReachEngine engine, const char* tag) {
  const fs::path dir = scratch_dir(tag);
  const PetriNet net = toggle_net(8);  // 256 states

  ReachOptions plain;
  plain.engine = engine;
  const std::uint64_t want = graph_digest(explore(net, plain));

  ReachOptions ckpt = plain;
  ckpt.checkpoint_path = (dir / "ck.bin").string();
  ckpt.checkpoint_every_states = 64;  // several mid-run snapshots
  EXPECT_EQ(graph_digest(explore(net, ckpt)), want);
  ASSERT_TRUE(fs::exists(dir / "ck.bin"));

  ReachOptions resume;
  resume.engine = engine;
  resume.resume_path = (dir / "ck.bin").string();
  const ReachabilityGraph resumed = explore(net, resume);
  EXPECT_EQ(graph_digest(resumed), want);
  EXPECT_EQ(resumed.state_count(), 256u);
  fs::remove_all(dir);
}

TEST(StoreCheckpoint, ResumeIsBitIdenticalDense) {
  check_resume_bit_identity(ReachEngine::kDense, "resume_dense");
}

TEST(StoreCheckpoint, ResumeIsBitIdenticalPacked) {
  // Toggles are 1-safe, so auto runs (and checkpoints) packed.
  check_resume_bit_identity(ReachEngine::kAuto, "resume_packed");
}

/// k-place ring with tokens on places 0 and k/2: M0 packs, but the tokens
/// can meet, so auto explores packed for ~k^2/8 states, then reruns dense.
PetriNet two_token_ring(std::size_t k) {
  PetriNet net;
  std::vector<PlaceId> ring;
  for (std::size_t i = 0; i < k; ++i) {
    ring.push_back(net.add_place("r" + std::to_string(i),
                                 i == 0 || i == k / 2 ? 1 : 0));
  }
  for (std::size_t i = 0; i < k; ++i) {
    net.add_transition({ring[i]}, "t" + std::to_string(i),
                       {ring[(i + 1) % k]});
  }
  return net;
}

TEST(StoreCheckpoint, AutoResumeOfAnUnsafeNetLetsTheImagePickTheEngine) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("resume_unsafe");
  const std::string path = (dir / "ck.bin").string();
  const PetriNet net = two_token_ring(32);
  const ReachabilityGraph plain = explore(net);
  ASSERT_EQ(plain.engine(), ReachEngine::kDense);  // fell back
  const std::uint64_t want = graph_digest(plain);
  auto counter = [](const char* name) {
    return obs::Registry::instance().snapshot().counter(name);
  };
  // Resumes from `path`: the reference digest, and these counter deltas.
  auto expect_resume = [&](ReachEngine engine, std::uint64_t loaded,
                           std::uint64_t rejected, std::uint64_t fallbacks) {
    const std::uint64_t loaded0 = counter("store.resume.loaded");
    const std::uint64_t rejected0 = counter("store.resume.rejected");
    const std::uint64_t fallbacks0 = counter("reach.packed.fallbacks");
    ReachOptions resume;
    resume.engine = engine;
    resume.resume_path = path;
    EXPECT_EQ(graph_digest(explore(net, resume)), want);
    EXPECT_EQ(counter("store.resume.loaded") - loaded0, loaded);
    EXPECT_EQ(counter("store.resume.rejected") - rejected0, rejected);
    EXPECT_EQ(counter("reach.packed.fallbacks") - fallbacks0, fallbacks);
  };

  // The dense rerun overwrites the packed attempt's snapshots, so a full
  // run leaves what a kill during the dense rerun would. Auto resumes it
  // dense, without a second packed attempt.
  ReachOptions ckpt;
  ckpt.checkpoint_path = path;
  ckpt.checkpoint_every_states = 64;
  EXPECT_EQ(graph_digest(explore(net, ckpt)), want);
  ASSERT_FALSE(reach_detail::load_checkpoint(path).image.packed);
  expect_resume(ReachEngine::kAuto, 1, 0, 0);

  // Stopped inside the packed attempt (the tokens first meet after ~136
  // states), a run leaves a packed snapshot. Auto resumes it, meets the
  // second token and reruns dense cold; forced dense rejects it.
  ckpt.checkpoint_every_states = 16;
  ckpt.max_states = 100;
  ckpt.truncate_on_limit = true;
  ASSERT_EQ(explore(net, ckpt).engine(), ReachEngine::kPacked);
  ASSERT_TRUE(reach_detail::load_checkpoint(path).image.packed);
  expect_resume(ReachEngine::kAuto, 1, 0, 1);
  expect_resume(ReachEngine::kDense, 0, 1, 0);
  fs::remove_all(dir);
}

TEST(StoreCheckpoint, CorruptResumeFileIsQuarantinedAndRunStartsCold) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("corrupt_resume");
  const PetriNet net = toggle_net(6);
  const std::string path = (dir / "ck.bin").string();

  ReachOptions ckpt;
  ckpt.checkpoint_path = path;
  ckpt.checkpoint_every_states = 16;
  const std::uint64_t want = graph_digest(explore(net, ckpt));

  // Tear the file mid-byte: the resume must quarantine and cold-start.
  const std::string bytes = slurp(path);
  spew(path, bytes.substr(0, bytes.size() / 2));

  const std::uint64_t skipped_before =
      obs::Registry::instance().snapshot().counter("store.corrupt.skipped");
  ReachOptions resume;
  resume.resume_path = path;
  EXPECT_EQ(graph_digest(explore(net, resume)), want);
  EXPECT_TRUE(fs::exists(path + ".bad"));
  EXPECT_GT(obs::Registry::instance().snapshot().counter(
                "store.corrupt.skipped"),
            skipped_before);
  fs::remove_all(dir);
}

TEST(StoreCheckpoint, ForeignCheckpointIsRejectedAndRunStartsCold) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("foreign_resume");
  const std::string path = (dir / "ck.bin").string();

  ReachOptions ckpt;
  ckpt.checkpoint_path = path;
  ckpt.checkpoint_every_states = 16;
  (void)explore(toggle_net(6), ckpt);  // checkpoint of a 6-toggle net

  const std::uint64_t rejected_before =
      obs::Registry::instance().snapshot().counter("store.resume.rejected");
  ReachOptions resume;
  resume.resume_path = path;
  const PetriNet other = toggle_net(5);
  ReachOptions plain;
  EXPECT_EQ(graph_digest(explore(other, resume)),
            graph_digest(explore(other, plain)));
  EXPECT_GT(
      obs::Registry::instance().snapshot().counter("store.resume.rejected"),
      rejected_before);
  fs::remove_all(dir);
}

TEST(StoreCheckpoint, MissingResumeFileSimplyStartsFresh) {
  const fs::path dir = scratch_dir("missing_resume");
  ReachOptions resume;
  resume.resume_path = (dir / "never_written.bin").string();
  const PetriNet net = toggle_net(4);
  ReachOptions plain;
  EXPECT_EQ(graph_digest(explore(net, resume)),
            graph_digest(explore(net, plain)));
  fs::remove_all(dir);
}

// --- the bad-input corpus, store edition -----------------------------------
// Like BadInputCorpus (test_io.cpp) for parsers: every *.ckpt / *.rc file
// under tests/data/bad is damaged on purpose, and the durable loaders must
// reject each one as a counted recovery — never crash, never trust it.

std::string bad_corpus_dir() {
#ifdef CIPNET_SOURCE_DIR
  return std::string(CIPNET_SOURCE_DIR) + "/tests/data/bad";
#else
  return "tests/data/bad";
#endif
}

TEST(StoreCheckpoint, EveryCorpusCheckpointIsRejectedNotTrusted) {
  const fs::path dir(bad_corpus_dir());
  ASSERT_TRUE(fs::is_directory(dir));
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ckpt") continue;
    ++checked;
    // load_checkpoint reads in place (no quarantine side effect here —
    // the explorer quarantines a *copy* of its own resume path, the
    // corpus stays pristine).
    const fs::path copy =
        scratch_dir("corpus") / entry.path().filename();
    fs::copy_file(entry.path(), copy, fs::copy_options::overwrite_existing);
    const reach_detail::LoadResult result =
        reach_detail::load_checkpoint(copy.string());
    EXPECT_EQ(result.status, reach_detail::LoadStatus::kCorrupt)
        << entry.path() << " was accepted";
    EXPECT_FALSE(result.why.empty()) << entry.path();
    fs::remove_all(copy.parent_path());
  }
  EXPECT_GE(checked, 2u) << "checkpoint corpus went missing from " << dir;
}

TEST(StoreCache, EveryCorpusCacheEntryIsQuarantinedOnLoad) {
  const fs::path corpus(bad_corpus_dir());
  ASSERT_TRUE(fs::is_directory(corpus));
  const fs::path dir = scratch_dir("rc_corpus");
  std::size_t planted = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() != ".rc") continue;
    fs::copy_file(entry.path(), dir / entry.path().filename(),
                  fs::copy_options::overwrite_existing);
    ++planted;
  }
  ASSERT_GE(planted, 1u) << "cache-entry corpus went missing from " << corpus;

  svc::ResultCache cache;
  svc::CachePersister persister(dir.string(), std::chrono::milliseconds(0));
  EXPECT_EQ(persister.load_into(cache), 0u);
  EXPECT_EQ(cache.entries(), 0u);
  std::size_t quarantined = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bad") ++quarantined;
  }
  EXPECT_EQ(quarantined, planted);
  fs::remove_all(dir);
}

// --- the persistent ResultCache --------------------------------------------

TEST(StoreCache, CacheEntryRoundTrips) {
  svc::CacheEntryImage image;
  image.key = {0xabcdULL, "reach", "max_states=100"};
  image.wall_ms = 1234567;
  image.payload = R"({"states":16,"edges":64})";
  const std::string body = svc::encode_cache_entry(image);
  svc::CacheEntryImage back;
  std::string why;
  ASSERT_TRUE(svc::decode_cache_entry(body, back, why)) << why;
  EXPECT_EQ(back.key, image.key);
  EXPECT_EQ(back.wall_ms, image.wall_ms);
  EXPECT_EQ(back.payload, image.payload);

  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        svc::decode_cache_entry(body.substr(0, cut), back, why))
        << "prefix of " << cut << " bytes decoded cleanly";
  }
  EXPECT_FALSE(svc::decode_cache_entry(body + "x", back, why));
}

TEST(StoreCache, WriteThroughSurvivesARestart) {
  const fs::path dir = scratch_dir("warm");
  const svc::CacheKey key{42, "reach", ""};
  {
    svc::ResultCache cache;
    svc::CachePersister persister(dir.string(),
                                  std::chrono::milliseconds(0));
    ASSERT_EQ(persister.load_into(cache), 0u);  // cold first boot
    persister.attach(cache);
    cache.insert(key, "payload-v1");
    EXPECT_TRUE(fs::exists(persister.path_for(key)));
  }
  // "Restart": a fresh cache + persister over the same directory.
  svc::ResultCache cache;
  svc::CachePersister persister(dir.string(), std::chrono::milliseconds(0));
  EXPECT_EQ(persister.load_into(cache), 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-v1");
  fs::remove_all(dir);
}

TEST(StoreCache, EraseAndClearRemoveTheOnDiskTwin) {
  const fs::path dir = scratch_dir("erase");
  svc::ResultCache cache;
  svc::CachePersister persister(dir.string(), std::chrono::milliseconds(0));
  persister.attach(cache);
  const svc::CacheKey a{1, "reach", ""};
  const svc::CacheKey b{2, "cover", ""};
  cache.insert(a, "pa");
  cache.insert(b, "pb");
  ASSERT_TRUE(fs::exists(persister.path_for(a)));

  // The negative-result quarantine: a failed job's key loses its twin.
  cache.erase(a);
  EXPECT_FALSE(fs::exists(persister.path_for(a)));
  EXPECT_TRUE(fs::exists(persister.path_for(b)));

  cache.clear();
  EXPECT_FALSE(fs::exists(persister.path_for(b)));
  fs::remove_all(dir);
}

TEST(StoreCache, PersisterAppliesOpsInCacheOrderNotArrivalOrder) {
  // The cache's listener hooks run outside its lock, so a racing
  // erase/insert pair for one key can reach the persister in either
  // order; the cache-assigned seq restores the true order. The stale
  // insert here (seq 1) arrives after the erase that outranked it
  // (seq 2) and must not leave a file memory gave up on — on restart it
  // would resurrect the dropped entry.
  const fs::path dir = scratch_dir("stale_ops");
  svc::CachePersister persister(dir.string(), std::chrono::milliseconds(0));
  const svc::CacheKey key{9, "reach", ""};
  persister.remove(key, 2);
  persister.persist(key, "stale", 1);
  EXPECT_FALSE(fs::exists(persister.path_for(key)));
  // A genuinely newer insert still persists.
  persister.persist(key, "fresh", 3);
  EXPECT_TRUE(fs::exists(persister.path_for(key)));
  // clear() is a floor for every key: stale clears are ignored, newer
  // ones wipe, and only ops after the clear apply again.
  persister.remove_all(2);
  EXPECT_TRUE(fs::exists(persister.path_for(key)));
  persister.remove_all(4);
  EXPECT_FALSE(fs::exists(persister.path_for(key)));
  persister.persist(key, "pre-clear straggler", 4);
  EXPECT_FALSE(fs::exists(persister.path_for(key)));
  persister.persist(key, "post-clear", 5);
  EXPECT_TRUE(fs::exists(persister.path_for(key)));
  fs::remove_all(dir);
}

TEST(StoreCache, ExpiredEntriesAreDroppedOnReloadNotResurrected) {
  const fs::path dir = scratch_dir("ttl");
  const svc::CacheKey key{7, "reach", ""};
  // Plant an entry whose wall-clock insert time is 10 s in the past.
  svc::CachePersister persister(dir.string(), std::chrono::seconds(1));
  svc::CacheEntryImage image;
  image.key = key;
  image.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()) -
      10000;
  image.payload = "stale";
  store::write_file_atomic(
      persister.path_for(key),
      store::seal_blob(svc::kCacheEntryMagic, svc::kCacheEntryVersion,
                       svc::encode_cache_entry(image)));

  svc::ResultCache cache;
  EXPECT_EQ(persister.load_into(cache), 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
  // Dropped on disk too: the next boot does not rescan it.
  EXPECT_FALSE(fs::exists(persister.path_for(key)));
  fs::remove_all(dir);
}

TEST(StoreCache, ServiceRestartAnswersTheSameRequestWarm) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("svc_warm");
  const std::string net_text = write_net(toggle_net(4), "toggles");
  const std::string request =
      "{\"id\":1,\"op\":\"reach\",\"net\":\"" + json::escape(net_text) +
      "\"}";

  svc::ServiceOptions options;
  options.cache_dir = dir.string();
  {
    svc::AnalysisService service(options);
    const json::Value first = json::parse(service.handle_line(request));
    ASSERT_TRUE(first.find("ok")->as_bool());
    EXPECT_FALSE(first.find("cached")->as_bool());
  }
  const std::uint64_t hits_before =
      obs::Registry::instance().snapshot().counter("svc.cache.hit");
  {
    // The restarted server answers the identical request from the
    // reloaded cache — no recomputation, `cached: true` on first ask.
    svc::AnalysisService service(options);
    const json::Value again = json::parse(service.handle_line(request));
    ASSERT_TRUE(again.find("ok")->as_bool());
    EXPECT_TRUE(again.find("cached")->as_bool());
    EXPECT_EQ(again.find("result")->get_number("states"), 16.0);
  }
  EXPECT_GT(obs::Registry::instance().snapshot().counter("svc.cache.hit"),
            hits_before);
  fs::remove_all(dir);
}

TEST(StoreService, CheckpointAndResumeNamesAreConfinedToCheckpointDir) {
  const fs::path dir = scratch_dir("svc_ckpt");
  const std::string net_text = write_net(toggle_net(4), "toggles");
  auto reach_with = [&](const char* member, const std::string& value) {
    return "{\"op\":\"reach\",\"net\":\"" + json::escape(net_text) +
           "\",\"" + member + "\":\"" + json::escape(value) + "\"}";
  };

  // Without --checkpoint-dir the members are rejected outright: these
  // strings reach rename()/write paths on the server's filesystem, and
  // the TCP frontend feeds the same parser.
  {
    svc::AnalysisService service;
    const json::Value refused =
        json::parse(service.handle_line(reach_with("checkpoint", "ck.bin")));
    ASSERT_FALSE(refused.find("ok")->as_bool());
    EXPECT_EQ(refused.find("error")->get_string("code"), "bad_request");
  }

  svc::ServiceOptions options;
  options.checkpoint_dir = dir.string();
  svc::AnalysisService service(options);
  // Traversal attempts never reach the filesystem.
  for (const std::string evil :
       {"../escape", "/etc/passwd", "a/b", "..", ".", "sub\\name"}) {
    const json::Value refused =
        json::parse(service.handle_line(reach_with("resume", evil)));
    ASSERT_FALSE(refused.find("ok")->as_bool()) << evil;
    EXPECT_EQ(refused.find("error")->get_string("code"), "bad_request")
        << evil;
  }
  // A bare name resolves inside the directory — checkpoint there, then
  // resume from it.
  const json::Value ok = json::parse(service.handle_line(
      "{\"op\":\"reach\",\"net\":\"" + json::escape(net_text) +
      "\",\"checkpoint\":\"ck.bin\",\"checkpoint_every\":4}"));
  ASSERT_TRUE(ok.find("ok")->as_bool());
  EXPECT_TRUE(fs::exists(dir / "ck.bin"));
  const json::Value resumed =
      json::parse(service.handle_line(reach_with("resume", "ck.bin")));
  ASSERT_TRUE(resumed.find("ok")->as_bool());
  EXPECT_EQ(resumed.find("result")->get_number("states"), 16.0);
  fs::remove_all(dir);
}

TEST(StoreCache, DamagedCacheDirectoryCostsWarmthNeverTheBoot) {
  const fs::path dir = scratch_dir("damaged_dir");
  // A mix: one good entry, one torn one, one pure junk.
  const svc::CacheKey good{11, "reach", ""};
  {
    svc::ResultCache cache;
    svc::CachePersister persister(dir.string(),
                                  std::chrono::milliseconds(0));
    persister.attach(cache);
    cache.insert(good, "good-payload");
  }
  const fs::path good_path = [&] {
    svc::CachePersister p(dir.string(), std::chrono::milliseconds(0));
    return fs::path(p.path_for(good));
  }();
  spew(dir / "0000000000000001.rc", slurp(good_path).substr(0, 10));
  spew(dir / "0000000000000002.rc", "complete garbage");

  svc::ResultCache cache;
  svc::CachePersister persister(dir.string(), std::chrono::milliseconds(0));
  EXPECT_EQ(persister.load_into(cache), 1u);
  EXPECT_TRUE(cache.lookup(good).has_value());
  EXPECT_TRUE(fs::exists(dir / "0000000000000001.rc.bad"));
  EXPECT_TRUE(fs::exists(dir / "0000000000000002.rc.bad"));
  fs::remove_all(dir);
}

// --- fault-site behavior ----------------------------------------------------

#if CIPNET_FAULT_ENABLED

class StoreFaults : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

TEST_F(StoreFaults, FailedCheckpointWriteIsCountedNeverFatal) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("fault_write");
  const PetriNet net = toggle_net(6);

  ReachOptions plain;
  const std::uint64_t want = graph_digest(explore(net, plain));

  const std::uint64_t errors_before =
      obs::Registry::instance().snapshot().counter("store.persist.errors");
  fault::configure("store.write=every1");
  ReachOptions ckpt;
  ckpt.checkpoint_path = (dir / "ck.bin").string();
  ckpt.checkpoint_every_states = 16;
  EXPECT_EQ(graph_digest(explore(net, ckpt)), want);  // run unharmed
  fault::clear();
  EXPECT_GT(
      obs::Registry::instance().snapshot().counter("store.persist.errors"),
      errors_before);
  EXPECT_FALSE(fs::exists(dir / "ck.bin"));  // nothing half-written either
  fs::remove_all(dir);
}

TEST_F(StoreFaults, FsyncFaultLeavesThePreviousCheckpointIntact) {
  const fs::path dir = scratch_dir("fault_fsync");
  const std::string path = (dir / "ck.bin").string();
  store::write_file_atomic(path, "previous good bytes");

  fault::configure("store.fsync=n1");
  EXPECT_THROW(store::write_file_atomic(path, "doomed"), Error);
  fault::clear();
  // The old durable file survives; the doomed temp (writer-unique name,
  // `.tmp.<pid>.<n>`) was unlinked.
  EXPECT_EQ(slurp(path), "previous good bytes");
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path() << " leaked";
  }
  fs::remove_all(dir);
}

TEST_F(StoreFaults, LoadFaultSkipsTheResumeButNotTheRun) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("fault_load");
  const PetriNet net = toggle_net(6);
  const std::string path = (dir / "ck.bin").string();
  ReachOptions ckpt;
  ckpt.checkpoint_path = path;
  ckpt.checkpoint_every_states = 16;
  const std::uint64_t want = graph_digest(explore(net, ckpt));

  fault::configure("store.load=n1");
  ReachOptions resume;
  resume.resume_path = path;
  EXPECT_EQ(graph_digest(explore(net, resume)), want);  // cold but correct
  fault::clear();
  // An injected read failure is transient: the file itself is fine and
  // must NOT have been quarantined.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".bad"));
  fs::remove_all(dir);
}

TEST_F(StoreFaults, CachePersistFaultCostsTheTwinNeverTheEntry) {
  obs::ScopedEnable metrics;
  const fs::path dir = scratch_dir("fault_persist");
  svc::ResultCache cache;
  svc::CachePersister persister(dir.string(), std::chrono::milliseconds(0));
  persister.attach(cache);

  const std::uint64_t errors_before =
      obs::Registry::instance().snapshot().counter("store.persist.errors");
  fault::configure("store.write=n1");
  const svc::CacheKey key{5, "reach", ""};
  cache.insert(key, "payload");
  fault::clear();

  // In-memory entry unharmed, on-disk twin lost, loss counted.
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_FALSE(fs::exists(persister.path_for(key)));
  EXPECT_GT(
      obs::Registry::instance().snapshot().counter("store.persist.errors"),
      errors_before);
  fs::remove_all(dir);
}

#endif  // CIPNET_FAULT_ENABLED

}  // namespace
}  // namespace cipnet
