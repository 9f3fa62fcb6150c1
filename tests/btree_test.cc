#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "common/encoding.h"
#include "common/rng.h"
#include "index/attribute_index.h"
#include "index/btc_index.h"
#include "storage/fault_injection_file.h"
#include "storage/pager.h"
#include "test_util.h"

namespace caldera {
namespace {

std::string Key8(uint64_t v) {
  std::string s;
  EncodeU64(v, &s);
  return s;
}

std::string Val4(uint32_t v) {
  std::string s;
  PutFixed32(v, &s);
  return s;
}

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("caldera_btree_test_" + std::string(::testing::UnitTest::
                                                    GetInstance()
                                                        ->current_test_info()
                                                        ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// A tree file of the given entries, bulk-built in key order, indexing
// `indexed_length` timesteps.
std::unique_ptr<BTree> Build(const std::string& path, BTreeOptions options,
                             const std::map<std::string, std::string>& entries,
                             uint64_t indexed_length = 0,
                             uint32_t page_size = 512) {
  auto builder = BTreeBuilder::Create(path, options, page_size);
  EXPECT_TRUE(builder.ok()) << builder.status().ToString();
  if (!builder.ok()) return nullptr;
  for (const auto& [key, value] : entries) {
    EXPECT_TRUE((*builder)->Add(key, value).ok());
  }
  auto tree = (*builder)->Finish(indexed_length);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return tree.ok() ? std::move(*tree) : nullptr;
}

// Every entry of `tree` in cursor order equals `want`'s, and Get finds
// each.
void ExpectHolds(BTree* tree, const std::map<std::string, std::string>& want) {
  EXPECT_EQ(tree->num_entries(), want.size());
  auto cursor = tree->SeekFirst();
  ASSERT_TRUE(cursor.ok());
  auto it = want.begin();
  while (cursor->valid()) {
    ASSERT_NE(it, want.end());
    EXPECT_EQ(cursor->key(), it->first);
    EXPECT_EQ(cursor->value(), it->second);
    ASSERT_TRUE(cursor->Next().ok());
    ++it;
  }
  EXPECT_EQ(it, want.end());
  for (const auto& [key, value] : want) {
    auto got = tree->Get(key);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, value);
  }
}

// Pages of the tree file at `path` past its header and meta page.
uint64_t NodePages(const std::string& path) {
  auto pager = Pager::Open(path);
  EXPECT_TRUE(pager.ok()) << pager.status().ToString();
  return pager.ok() ? (*pager)->page_count() - 2 : 0;
}

// The nodes the root of the tree file at `path` reaches, counted by walking
// the on-disk format (docs/FORMATS.md) with plain page reads, independent of
// BTree.
uint64_t ReachableNodes(const std::string& path) {
  auto pager = Pager::Open(path);
  EXPECT_TRUE(pager.ok()) << pager.status().ToString();
  if (!pager.ok()) return 0;
  std::vector<char> page((*pager)->page_size());
  EXPECT_TRUE((*pager)->ReadPage(1, page.data()).ok());
  const uint32_t key_size = GetFixed32(page.data() + 8);
  std::vector<PageId> pending = {GetFixed64(page.data() + 16)};
  uint64_t nodes = 0;
  while (!pending.empty() && nodes <= (*pager)->page_count()) {
    const PageId id = pending.back();
    pending.pop_back();
    ++nodes;
    EXPECT_TRUE((*pager)->ReadPage(id, page.data()).ok()) << "page " << id;
    if (page[0] != 2) continue;  // A leaf.
    uint16_t count;
    std::memcpy(&count, page.data() + 1, 2);
    pending.push_back(GetFixed64(page.data() + 8));
    for (uint16_t i = 0; i < count; ++i) {
      pending.push_back(
          GetFixed64(page.data() + 16 + i * (key_size + 8) + key_size));
    }
  }
  return nodes;
}

TEST_F(BTreeTest, EmptyTree) {
  auto tree = Build(Path("t"), {8, 4}, {});
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->num_entries(), 0u);
  EXPECT_EQ(tree->indexed_length(), 0u);
  auto get = tree->Get(Key8(1));
  ASSERT_TRUE(get.ok());
  EXPECT_FALSE(get->has_value());
  auto cursor = tree->SeekFirst();
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor->valid());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

// Entries inserted into the in-memory tail, in any order, are found by
// Get; the file is untouched.
TEST_F(BTreeTest, InsertAndGet) {
  auto tree = Build(Path("t"), {8, 4}, {});
  ASSERT_NE(tree, nullptr);
  for (uint64_t i = 100; i > 0; --i) {
    ASSERT_TRUE(tree->AddToTail(Key8((i - 1) * 3) + Val4(i - 1)).ok());
  }
  EXPECT_EQ(tree->num_entries(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    auto got = tree->Get(Key8(i * 3));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(GetFixed32(got->value().data()), i);
    auto missing = tree->Get(Key8(i * 3 + 1));
    ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(missing->has_value());
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  auto tree = Build(Path("t"), {8, 4}, {});
  ASSERT_NE(tree, nullptr);
  ASSERT_TRUE(tree->AddToTail(Key8(7) + Val4(1)).ok());
  EXPECT_EQ(tree->AddToTail(Key8(7) + Val4(2)).code(),
            StatusCode::kAlreadyExists);
  // A batch with a duplicate inside is refused whole.
  EXPECT_EQ(tree->AddToTail(Key8(9) + Val4(1) + Key8(8) + Val4(1) + Key8(9) +
                            Val4(2))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(tree->num_entries(), 1u);
}

TEST_F(BTreeTest, KeySizeMismatchRejected) {
  auto tree = Build(Path("t"), {8, 4}, {});
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->AddToTail("short" + Val4(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree->AddToTail(Key8(0) + "toolongvalue").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree->num_entries(), 0u);
  EXPECT_EQ(tree->Get("x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree->Seek("x").status().code(), StatusCode::kInvalidArgument);
}

// Random keys split between the file and the tail: cursors, seeks and Get
// see one key-ordered set, as if all were in the file.
TEST_F(BTreeTest, RandomInsertMatchesReferenceMap) {
  Rng rng(1234);
  std::map<std::string, std::string> in_file;
  std::map<std::string, std::string> reference;
  std::vector<std::pair<std::string, std::string>> in_tail;
  for (int i = 0; i < 5000; ++i) {
    std::string key = Key8(rng.NextBelow(100000));
    std::string value = Val4(static_cast<uint32_t>(i));
    if (!reference.emplace(key, value).second) continue;
    if (rng.NextBelow(2) == 0) {
      in_file.emplace(key, value);
    } else {
      in_tail.emplace_back(key, value);
    }
  }
  auto tree = Build(Path("t"), {8, 4}, in_file);
  ASSERT_NE(tree, nullptr);
  // Half the tail in one unsorted batch, the rest one entry at a time.
  std::string batch;
  for (size_t i = 0; i < in_tail.size() / 2; ++i) {
    batch += in_tail[i].first + in_tail[i].second;
  }
  ASSERT_TRUE(tree->AddToTail(batch).ok());
  for (size_t i = in_tail.size() / 2; i < in_tail.size(); ++i) {
    ASSERT_TRUE(tree->AddToTail(in_tail[i].first + in_tail[i].second).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ExpectHolds(tree.get(), reference);
  for (int probe = 0; probe < 200; ++probe) {
    const std::string key = Key8(rng.NextBelow(100001));
    auto cursor = tree->Seek(key);
    ASSERT_TRUE(cursor.ok());
    auto want = reference.lower_bound(key);
    ASSERT_EQ(cursor->valid(), want != reference.end());
    if (cursor->valid()) {
      EXPECT_EQ(cursor->key(), want->first);
    }
  }
}

TEST_F(BTreeTest, SeekFindsLowerBound) {
  // Multiples of 20 in the file, the other multiples of 10 in the tail.
  std::map<std::string, std::string> in_file;
  for (uint64_t i = 20; i <= 1000; i += 20) in_file.emplace(Key8(i), "");
  auto tree = Build(Path("t"), {8, 0}, in_file);
  ASSERT_NE(tree, nullptr);
  for (uint64_t i = 10; i <= 1000; i += 20) {
    ASSERT_TRUE(tree->AddToTail(Key8(i)).ok());
  }
  for (uint64_t probe : {0ull, 5ull, 10ull, 11ull, 555ull, 995ull, 1000ull}) {
    auto cursor = tree->Seek(Key8(probe));
    ASSERT_TRUE(cursor.ok());
    uint64_t expected = ((probe + 9) / 10) * 10;
    if (expected < 10) expected = 10;
    ASSERT_TRUE(cursor->valid()) << probe;
    EXPECT_EQ(DecodeU64(cursor->key().data()), expected) << probe;
  }
  auto past = tree->Seek(Key8(1001));
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->valid());
}

// The file keeps its entries and indexed length across a reopen; the tail
// lives in memory only.
TEST_F(BTreeTest, PersistsAcrossReopen) {
  {
    std::map<std::string, std::string> entries;
    for (uint64_t i = 0; i < 2000; ++i) {
      entries.emplace(Key8(i), Val4(i & 0xff));
    }
    auto tree = Build(Path("t"), {8, 4}, entries, /*indexed_length=*/77);
    ASSERT_NE(tree, nullptr);
    ASSERT_TRUE(tree->AddToTail(Key8(5000) + Val4(1)).ok());
  }
  auto tree = BTree::Open(Path("t"));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->num_entries(), 2000u);
  EXPECT_EQ((*tree)->indexed_length(), 77u);
  EXPECT_EQ((*tree)->length(), 77u);
  EXPECT_EQ((*tree)->options().key_size, 8u);
  EXPECT_EQ((*tree)->options().value_size, 4u);
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  auto got = (*tree)->Get(Key8(1234));
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(GetFixed32(got->value().data()), 1234u & 0xff);
  auto tail_key = (*tree)->Get(Key8(5000));
  ASSERT_TRUE(tail_key.ok());
  EXPECT_FALSE(tail_key->has_value());
}

// A file in the v1 format, which records no indexed length, is refused.
TEST_F(BTreeTest, OpenRejectsTheV1Format) {
  ASSERT_NE(Build(Path("t"), {8, 4}, {{Key8(1), Val4(1)}}), nullptr);
  {
    auto pager = Pager::Open(Path("t"));
    ASSERT_TRUE(pager.ok());
    std::string meta((*pager)->page_size(), '\0');
    ASSERT_TRUE((*pager)->ReadPage(1, meta.data()).ok());
    ASSERT_EQ(meta.substr(0, 8), "CLDRBTR2");
    meta[7] = '1';
    ASSERT_TRUE((*pager)->WritePage(1, meta.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  auto tree = BTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(BTreeTest, BulkLoadMatchesReference) {
  auto builder = BTreeBuilder::Create(Path("t"), {8, 4}, 512);
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  const uint64_t kEntries = 20000;
  for (uint64_t i = 0; i < kEntries; ++i) {
    ASSERT_TRUE((*builder)->Add(Key8(i * 7), Val4(i & 0xffff)).ok());
  }
  auto tree = (*builder)->Finish(/*indexed_length=*/0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->num_entries(), kEntries);
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  EXPECT_GT((*tree)->height(), 1u);
  for (uint64_t probe :
       {uint64_t{0}, uint64_t{7}, uint64_t{70000}, (kEntries - 1) * 7}) {
    auto got = (*tree)->Get(Key8(probe));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->has_value()) << probe;
  }
  // Scan order.
  auto cursor = (*tree)->SeekFirst();
  ASSERT_TRUE(cursor.ok());
  uint64_t expected = 0;
  while (cursor->valid()) {
    EXPECT_EQ(DecodeU64(cursor->key().data()), expected * 7);
    ++expected;
    ASSERT_TRUE(cursor->Next().ok());
  }
  EXPECT_EQ(expected, kEntries);
}

TEST_F(BTreeTest, BulkLoadRejectsUnsortedKeys) {
  auto builder = BTreeBuilder::Create(Path("t"), {8, 0}, 512);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(Key8(10), {}).ok());
  EXPECT_EQ((*builder)->Add(Key8(10), {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*builder)->Add(Key8(5), {}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, BulkLoadEmpty) {
  auto builder = BTreeBuilder::Create(Path("t"), {8, 0}, 512);
  ASSERT_TRUE(builder.ok());
  auto tree = (*builder)->Finish(/*indexed_length=*/0);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->num_entries(), 0u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkLoadSingleEntry) {
  auto builder = BTreeBuilder::Create(Path("t"), {8, 4}, 512);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(Key8(42), Val4(42)).ok());
  auto tree = (*builder)->Finish(/*indexed_length=*/0);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->num_entries(), 1u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  auto got = (*tree)->Get(Key8(42));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->has_value());
}

// A build writes exactly the nodes its root reaches: pages 2 and up hold no
// page that no node points at.
TEST_F(BTreeTest, RootReachesEveryNodePage) {
  std::map<std::string, std::string> many;
  for (uint64_t i = 0; i < 5000; ++i) many.emplace(Key8(i), Val4(i));
  const std::map<std::string, std::map<std::string, std::string>> builds = {
      {"empty", {}}, {"one_leaf", {{Key8(1), Val4(1)}}}, {"levels", many}};
  for (const auto& [name, entries] : builds) {
    auto tree = Build(Path(name), {8, 4}, entries);
    ASSERT_NE(tree, nullptr) << name;
    EXPECT_TRUE(tree->CheckInvariants().ok()) << name;
    EXPECT_EQ(ReachableNodes(Path(name)), NodePages(Path(name))) << name;
    if (entries.size() < 2) {
      EXPECT_EQ(NodePages(Path(name)), 1u) << name;
    } else {
      EXPECT_GE(tree->height(), 3u);
    }
  }
}

// Compaction rebuilds a tree through the builder, so its output holds
// only reachable nodes too.
TEST_F(BTreeTest, CompactedTreeReachesEveryNodePage) {
  MarkovianStream stream = test::MakeValidStream(200, 6, 7);
  const std::string dir = Path("s");
  ASSERT_TRUE(WriteStream(dir, stream).ok());
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  const TreeIndexFile file{0, /*is_btc=*/true, BtcIndexPath(dir, 0)};
  auto entries = TreeIndexEntries(file, stored->get(), 0);
  ASSERT_TRUE(entries.ok());
  const size_t num_entries = entries->size() / (kBtcKeySize + kBtcValueSize);
  // A BT_C file over the first half of the stream: compaction merges the
  // second half in from the stream.
  std::map<std::string, std::string> first_half;
  for (size_t i = 0; i < entries->size(); i += kBtcKeySize + kBtcValueSize) {
    const std::string key = entries->substr(i, kBtcKeySize);
    uint32_t value;
    uint64_t time;
    DecodeBtcKey(key, &value, &time);
    if (time < 100) {
      first_half.emplace(key, entries->substr(i + kBtcKeySize, kBtcValueSize));
    }
  }
  auto tree = Build(file.path, {kBtcKeySize, kBtcValueSize}, first_half,
                    /*indexed_length=*/100);
  ASSERT_NE(tree, nullptr);
  auto compacted = CompactTreeIndex(file, stored->get(), tree.get());
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(*compacted, num_entries);
  auto reopened = BTree::Open(file.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->indexed_length(), 200u);
  EXPECT_EQ((*reopened)->num_entries(), num_entries);
  EXPECT_GE((*reopened)->height(), 2u);
  EXPECT_TRUE((*reopened)->CheckInvariants().ok());
  EXPECT_EQ(ReachableNodes(file.path), NodePages(file.path));
}

// A page past the meta page that no node reaches is Corruption.
TEST_F(BTreeTest, CheckInvariantsRejectsAnUnreachablePage) {
  ASSERT_NE(Build(Path("t"), {8, 4}, {{Key8(1), Val4(1)}}), nullptr);
  {
    auto pager = Pager::Open(Path("t"));
    ASSERT_TRUE(pager.ok());
    std::string leaf((*pager)->page_size(), '\0');
    leaf[0] = 1;  // An empty leaf.
    ASSERT_TRUE((*pager)->AppendPage(leaf.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  auto tree = BTree::Open(Path("t"));
  ASSERT_TRUE(tree.ok());
  Status st = (*tree)->CheckInvariants();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  auto got = (*tree)->Get(Key8(1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->has_value());
}

// A build writes each page once: the node pages, plus the pager header
// and the meta page twice each (reserved at Create, final at Finish).
TEST_F(BTreeTest, BuildWritesEachPageOnce) {
  const std::string path = Path("write_count.bt");
  std::map<std::string, std::string> entries;
  for (uint64_t i = 0; i < 5000; ++i) entries.emplace(Key8(i), Val4(i));
  uint64_t writes = 0;
  {
    ScopedFaultInjection inject("write_count.bt", FaultInjectionOptions{});
    auto tree = Build(path, {8, 4}, entries);
    ASSERT_NE(tree, nullptr);
    EXPECT_GE(tree->height(), 3u);
    writes = inject.counters().writes;
  }
  EXPECT_EQ(writes, NodePages(path) + 4);
}

// Ends the process when the scope it guards runs longer than 10 s, so a
// walk that loops forever fails the test instead of hanging the suite.
class Watchdog {
 public:
  explicit Watchdog(const char* what)
      : thread_([this, what] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(10),
                            [this] { return done_; })) {
            std::fprintf(stderr, "%s did not finish within 10 s\n", what);
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // Last: it starts once the members above exist.
};

// Rewrites the next pointer of leaf page `leaf` in the tree file at `path`.
void SetLeafNext(const std::string& path, PageId leaf, PageId next) {
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  std::vector<char> page((*pager)->page_size());
  ASSERT_TRUE((*pager)->ReadPage(leaf, page.data()).ok());
  ASSERT_EQ(page[0], 1) << "page " << leaf << " is not a leaf";
  std::memcpy(page.data() + 4, &next, 8);
  ASSERT_TRUE((*pager)->WritePage(leaf, page.data()).ok());
  ASSERT_TRUE((*pager)->Sync().ok());
}

// Walks `tree` from its first entry to the end or to the first error.
Status WalkAll(BTree* tree) {
  auto cursor = tree->SeekFirst();
  if (!cursor.ok()) return cursor.status();
  while (cursor->valid()) {
    Status st = cursor->Next();
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

// An empty tree's one leaf whose next pointer names itself is Corruption to
// a cursor and to CheckInvariants, which would otherwise loop on it.
TEST_F(BTreeTest, LeafPointingAtItselfIsCorruption) {
  Watchdog watchdog("LeafPointingAtItselfIsCorruption");
  ASSERT_NE(Build(Path("t"), {8, 4}, {}), nullptr);
  SetLeafNext(Path("t"), 2, 2);
  auto tree = BTree::Open(Path("t"));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(WalkAll(tree->get()).code(), StatusCode::kCorruption);
  EXPECT_EQ((*tree)->CheckInvariants().code(), StatusCode::kCorruption);
}

// A leaf whose next pointer names an earlier leaf is Corruption once a walk
// reaches it, instead of a cycle.
TEST_F(BTreeTest, LeafPointingBackIsCorruption) {
  Watchdog watchdog("LeafPointingBackIsCorruption");
  std::map<std::string, std::string> entries;
  for (uint64_t i = 0; i < 50; ++i) entries.emplace(Key8(i), Val4(i));
  {
    auto tree = Build(Path("t"), {8, 4}, entries);
    ASSERT_NE(tree, nullptr);
    ASSERT_EQ(tree->height(), 2u);
    ASSERT_EQ(NodePages(Path("t")), 3u);  // Leaves 2 and 3, then the root.
    ASSERT_TRUE(tree->CheckInvariants().ok());
  }
  SetLeafNext(Path("t"), 3, 2);
  auto tree = BTree::Open(Path("t"));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(WalkAll(tree->get()).code(), StatusCode::kCorruption);
  EXPECT_EQ((*tree)->CheckInvariants().code(), StatusCode::kCorruption);
}

// From every entry, SeekForward to every key at or after it lands where a
// fresh Seek does, and the two cursors then walk the same entries to the
// end. Leaves of 3 entries on 512-byte pages give a 3-level file, so
// targets fall inside the copied run, on its last entry, on a leaf
// boundary and in later leaves; tail entries interleave with the file's.
TEST_F(BTreeTest, SeekForwardMatchesSeek) {
  const BTreeOptions options{8, 100};
  auto value = [](uint64_t k) { return std::string(100, char('a' + k % 26)); };
  // Keys 0..359: k % 3 == 0 in the file, k % 3 == 1 in the tail for
  // k < 240, every other key absent.
  std::map<std::string, std::string> in_file;
  std::string tail;
  for (uint64_t k = 0; k < 360; k += 3) in_file.emplace(Key8(k), value(k));
  for (uint64_t k = 1; k < 240; k += 3) tail += Key8(k) + value(k);
  for (const bool with_file : {true, false}) {
    SCOPED_TRACE(with_file ? "file and tail" : "tail only");
    auto tree = Build(Path(with_file ? "both" : "tail"), options,
                      with_file ? in_file
                                : std::map<std::string, std::string>{});
    ASSERT_NE(tree, nullptr);
    if (with_file) {
      ASSERT_EQ(tree->height(), 3u);
    }
    ASSERT_TRUE(tree->AddToTail(tail).ok());
    // Each start is a copy of one cursor walked with Next, so its copied
    // run begins wherever that walk last crossed a leaf boundary.
    auto start = tree->SeekFirst();
    ASSERT_TRUE(start.ok());
    while (start->valid()) {
      const uint64_t from = DecodeU64(start->key().data());
      for (uint64_t target = from; target < 362; ++target) {
        BTree::Cursor forward = *start;
        ASSERT_TRUE(forward.SeekForward(Key8(target)).ok());
        auto fresh = tree->Seek(Key8(target));
        ASSERT_TRUE(fresh.ok());
        while (fresh->valid()) {
          ASSERT_TRUE(forward.valid()) << from << " -> " << target;
          ASSERT_EQ(forward.key(), fresh->key()) << from << " -> " << target;
          ASSERT_EQ(forward.value(), fresh->value());
          ASSERT_TRUE(forward.Next().ok());
          ASSERT_TRUE(fresh->Next().ok());
        }
        ASSERT_FALSE(forward.valid()) << from << " -> " << target;
      }
      ASSERT_TRUE(start->Next().ok());
    }
  }
}

// The cursor reads each leaf once: a full walk fetches the root-to-leaf
// path and then each later leaf, a Seek or Get fetches one root-to-leaf
// path, and a SeekForward inside the copied leaf fetches nothing.
TEST_F(BTreeTest, CursorFetchesEachLeafOnce) {
  std::map<std::string, std::string> entries;
  for (uint64_t i = 0; i < 5000; ++i) entries.emplace(Key8(i), Val4(i));
  ASSERT_NE(Build(Path("t"), {8, 4}, entries), nullptr);
  uint64_t leaves = 0;
  {
    auto pager = Pager::Open(Path("t"));
    ASSERT_TRUE(pager.ok());
    std::vector<char> page((*pager)->page_size());
    for (PageId id = 2; id < (*pager)->page_count(); ++id) {
      ASSERT_TRUE((*pager)->ReadPage(id, page.data()).ok());
      if (page[0] == 1) ++leaves;
    }
  }
  auto tree = BTree::Open(Path("t"));
  ASSERT_TRUE(tree.ok());
  const uint64_t height = (*tree)->height();
  ASSERT_EQ(height, 3u);

  (*tree)->ResetStats();
  ASSERT_TRUE(WalkAll(tree->get()).ok());
  EXPECT_EQ((*tree)->stats().fetches, height + leaves - 1);

  (*tree)->ResetStats();
  auto cursor = (*tree)->Seek(Key8(2500));
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ((*tree)->stats().fetches, height);
  (*tree)->ResetStats();
  auto got = (*tree)->Get(Key8(2500));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, Val4(2500));
  EXPECT_EQ((*tree)->stats().fetches, height);

  // A seek to key 0 copies the whole first leaf, 36 entries.
  cursor = (*tree)->Seek(Key8(0));
  ASSERT_TRUE(cursor.ok());
  (*tree)->ResetStats();
  ASSERT_TRUE(cursor->SeekForward(Key8(20)).ok());
  ASSERT_TRUE(cursor->valid());
  EXPECT_EQ(cursor->key(), Key8(20));
  EXPECT_EQ((*tree)->stats().fetches, 0u);
}

// Tail entries interleave with a bulk-loaded file's in the merged order.
TEST_F(BTreeTest, InsertIntoBulkLoadedTree) {
  std::map<std::string, std::string> in_file;
  std::map<std::string, std::string> all;
  for (uint64_t i = 0; i < 1000; ++i) in_file.emplace(Key8(i * 2), "");
  auto tree = Build(Path("t"), {8, 0}, in_file);
  ASSERT_NE(tree, nullptr);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree->AddToTail(Key8(i * 2 + 1)).ok());
  }
  for (uint64_t i = 0; i < 2000; ++i) all.emplace(Key8(i), "");
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ExpectHolds(tree.get(), all);
}

// Parameterized sweep: tree behaviour must be identical across page sizes
// and entry shapes.
struct BTreeParam {
  uint32_t page_size;
  uint32_t key_size;
  uint32_t value_size;
  int entries;
};

class BTreeParamTest : public ::testing::TestWithParam<BTreeParam> {
 protected:
  void SetUp() override {
    // Pid-unique: ctest -j runs the parameterized cases as concurrent
    // processes, which would race on a fixed path.
    dir_ = std::filesystem::temp_directory_path() /
           ("caldera_btree_param_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_P(BTreeParamTest, RandomWorkloadKeepsInvariants) {
  const BTreeParam& p = GetParam();
  BTreeOptions options{p.key_size, p.value_size};
  Rng rng(p.page_size * 31 + p.key_size);
  std::map<std::string, std::string> in_file;
  std::map<std::string, std::string> in_tail;
  std::map<std::string, std::string> all;
  for (int i = 0; i < p.entries; ++i) {
    std::string key;
    while (key.size() < p.key_size) {
      key.push_back(static_cast<char>('a' + rng.NextBelow(16)));
    }
    std::string value(p.value_size, static_cast<char>(rng.NextBelow(256)));
    if (!all.emplace(key, value).second) continue;
    (i % 3 == 0 ? in_tail : in_file).emplace(key, value);
  }
  auto tree = Build((dir_ / "t").string(), options, in_file, 0, p.page_size);
  ASSERT_NE(tree, nullptr);
  for (const auto& [key, value] : in_tail) {
    ASSERT_TRUE(tree->AddToTail(key + value).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ExpectHolds(tree.get(), all);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeParamTest,
    ::testing::Values(BTreeParam{512, 8, 0, 2000},
                      BTreeParam{512, 12, 8, 2000},
                      BTreeParam{1024, 20, 0, 3000},
                      BTreeParam{4096, 12, 8, 5000},
                      BTreeParam{1024, 100, 64, 800}));

}  // namespace
}  // namespace caldera
