#include "src/engine/neighborhood_cache.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>

namespace knnq {

namespace {

/// splitmix64 finalizer: cheap, well-distributed mixing for the key's
/// four words.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t RoundUpPow2(std::size_t n) {
  if (n <= 1) return 1;
  return std::size_t{1} << std::bit_width(n - 1);
}

/// Coordinates are keyed by BIT PATTERN, not double equality: hashing
/// already inspects the bits, and double comparison would break the
/// index's hash/equality contract for -0.0 vs +0.0 and make NaN keys
/// (NaN != NaN) unfindable - and thus unevictable.
struct Key {
  /// SpatialIndex::instance_id() of the relation.
  std::uint64_t relation_id;
  std::uint64_t x_bits;
  std::uint64_t y_bits;
  std::size_t k;

  bool operator==(const Key&) const = default;
};

Key MakeKey(const SpatialIndex* relation, const Point& query,
            std::size_t k) {
  return Key{relation->instance_id(), std::bit_cast<std::uint64_t>(query.x),
             std::bit_cast<std::uint64_t>(query.y), k};
}

std::uint64_t Hash(const Key& key) {
  std::uint64_t h = Mix(key.relation_id);
  h = Mix(h ^ key.x_bits);
  h = Mix(h ^ key.y_bits);
  return Mix(h ^ static_cast<std::uint64_t>(key.k));
}

/// Intrusive LRU links. A shard's list is circular through a bare
/// Links sentinel: sentinel.next is the most recently used entry,
/// sentinel.prev the least.
struct Links {
  Links* prev = this;
  Links* next = this;
};

/// One cache entry, in ONE allocation: this header, then `size`
/// Neighbors inline.
struct Entry : Links {
  Key key;
  std::size_t size;

  Neighbor* neighbors() {
    return std::launder(reinterpret_cast<Neighbor*>(
        reinterpret_cast<std::byte*>(this) + sizeof(Entry)));
  }
};

static_assert(sizeof(Entry) % alignof(Neighbor) == 0,
              "inline neighbors must start aligned");
static_assert(std::is_trivially_copyable_v<Neighbor> &&
                  std::is_trivially_destructible_v<Neighbor>,
              "entries copy neighbors in and free them without destructors");

/// What one entry really holds: its allocation rounded the way malloc
/// rounds a chunk (an 8-byte size header, 16-byte granules) plus the
/// two index slots it keeps, the index being at most half full.
std::size_t EntryCost(std::size_t neighbors) {
  constexpr std::size_t kChunkHeader = sizeof(std::size_t);
  constexpr std::size_t kChunkGranule = 16;
  const std::size_t chunk =
      (sizeof(Entry) + neighbors * sizeof(Neighbor) + kChunkHeader +
       kChunkGranule - 1) &
      ~(kChunkGranule - 1);
  return chunk + 2 * sizeof(Entry*);
}

Entry* NewEntry(const Key& key, const Neighborhood& neighborhood) {
  void* raw =
      ::operator new(sizeof(Entry) + neighborhood.size() * sizeof(Neighbor));
  Entry* entry = ::new (raw) Entry{{}, key, neighborhood.size()};
  std::uninitialized_copy(neighborhood.begin(), neighborhood.end(),
                          entry->neighbors());
  return entry;
}

void DeleteEntry(Entry* entry) {
  entry->~Entry();
  ::operator delete(entry);
}

}  // namespace

struct NeighborhoodCache::Shard {
  /// Index slots of a fresh shard (a power of two).
  static constexpr std::size_t kMinSlots = 16;

  Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  ~Shard() { FreeAll(); }

  /// The entry stored under `key`, or null.
  Entry* Find(const Key& key, std::uint64_t hash) const {
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Entry* entry = index[i];
      if (entry == nullptr || entry->key == key) return entry;
    }
  }

  /// Links a new entry in as most recently used and charges it. The
  /// caller has checked its key is absent.
  void Add(Entry* entry, std::uint64_t hash) {
    if ((entries + 1) * 2 > index.size()) Grow();
    Place(entry, hash);
    PushFront(entry);
    ++entries;
    bytes += EntryCost(entry->size);
  }

  /// Unlinks `entry` from the index and the LRU list and frees it;
  /// returns the charge it released.
  std::size_t Remove(Entry* entry) {
    EraseSlot(SlotOf(entry));
    Unlink(entry);
    const std::size_t cost = EntryCost(entry->size);
    --entries;
    bytes -= cost;
    DeleteEntry(entry);
    return cost;
  }

  /// Refreshes `entry` to most recently used.
  void Touch(Entry* entry) {
    if (lru.next == entry) return;
    Unlink(entry);
    PushFront(entry);
  }

  Entry* LeastRecent() const { return static_cast<Entry*>(lru.prev); }

  /// Frees every entry and empties the index (its size is kept).
  void FreeAll() {
    for (Links* link = lru.next; link != &lru;) {
      Entry* entry = static_cast<Entry*>(link);
      link = link->next;
      DeleteEntry(entry);
    }
    lru.prev = lru.next = &lru;
    std::fill(index.begin(), index.end(), nullptr);
    entries = 0;
    bytes = 0;
  }

  mutable std::mutex mu;
  /// Open-addressing index of entry pointers: linear probing from the
  /// hash's low bits, null = empty slot.
  std::vector<Entry*> index = std::vector<Entry*>(kMinSlots);
  Links lru;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidated = 0;

 private:
  /// Stores `entry` in the first empty slot of its probe sequence.
  void Place(Entry* entry, std::uint64_t hash) {
    const std::size_t mask = index.size() - 1;
    std::size_t i = hash & mask;
    while (index[i] != nullptr) i = (i + 1) & mask;
    index[i] = entry;
  }

  std::size_t SlotOf(const Entry* entry) const {
    const std::size_t mask = index.size() - 1;
    std::size_t i = Hash(entry->key) & mask;
    while (index[i] != entry) i = (i + 1) & mask;
    return i;
  }

  /// Backward-shift deletion: pulls each later member of the probe run
  /// into the hole when the hole lies on its probe path, so lookups
  /// never need tombstones.
  void EraseSlot(std::size_t hole) {
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = (hole + 1) & mask; index[i] != nullptr;
         i = (i + 1) & mask) {
      const std::size_t home = Hash(index[i]->key) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        index[hole] = index[i];
        hole = i;
      }
    }
    index[hole] = nullptr;
  }

  void Grow() {
    std::vector<Entry*> old(index.size() * 2);
    old.swap(index);
    for (Entry* entry : old) {
      if (entry != nullptr) Place(entry, Hash(entry->key));
    }
  }

  void PushFront(Links* link) {
    link->prev = &lru;
    link->next = lru.next;
    lru.next->prev = link;
    lru.next = link;
  }

  static void Unlink(Links* link) {
    link->prev->next = link->next;
    link->next->prev = link->prev;
  }
};

NeighborhoodCache::NeighborhoodCache(NeighborhoodCacheOptions options)
    : capacity_bytes_(options.capacity_bytes),
      shard_capacity_(options.capacity_bytes /
                      RoundUpPow2(options.num_shards)),
      shard_bits_(std::countr_zero(RoundUpPow2(options.num_shards))),
      shards_(RoundUpPow2(options.num_shards)) {
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
}

NeighborhoodCache::~NeighborhoodCache() = default;

NeighborhoodCache::Shard& NeighborhoodCache::ShardFor(std::uint64_t hash) {
  // The index probes from the hash's low bits; the shard takes its top
  // bits, so the two choices stay independent.
  return *shards_[shard_bits_ == 0 ? 0 : hash >> (64 - shard_bits_)];
}

bool NeighborhoodCache::Lookup(const SpatialIndex* relation,
                               const Point& query, std::size_t k,
                               Neighborhood* out) {
  const Key key = MakeKey(relation, query, k);
  const std::uint64_t hash = Hash(key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = shard.Find(key, hash);
  if (entry == nullptr) {
    ++shard.misses;
    return false;
  }
  shard.Touch(entry);
  out->assign(entry->neighbors(), entry->neighbors() + entry->size);
  ++shard.hits;
  return true;
}

void NeighborhoodCache::Insert(const SpatialIndex* relation,
                               const Point& query, std::size_t k,
                               const Neighborhood& neighborhood) {
  const std::size_t cost = EntryCost(neighborhood.size());
  if (cost > shard_capacity_) return;  // Could never fit; drop.

  const Key key = MakeKey(relation, query, k);
  const std::uint64_t hash = Hash(key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (Entry* existing = shard.Find(key, hash)) {
    // A concurrent miss raced us here; the values are identical
    // (GetKnn is deterministic), so just refresh recency.
    shard.Touch(existing);
    return;
  }
  // The shard holds only entries that fit, so it is nonempty for as
  // long as the new one does not.
  std::size_t evicted_bytes = 0;
  while (shard.bytes + cost > shard_capacity_) {
    evicted_bytes += shard.Remove(shard.LeastRecent());
    ++shard.evictions;
  }
  shard.Add(NewEntry(key, neighborhood), hash);
  ++shard.insertions;
  if (cost >= evicted_bytes) {
    bytes_.fetch_add(cost - evicted_bytes, std::memory_order_relaxed);
  } else {
    bytes_.fetch_sub(evicted_bytes - cost, std::memory_order_relaxed);
  }
}

void NeighborhoodCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes_.fetch_sub(shard->bytes, std::memory_order_relaxed);
    shard->FreeAll();
  }
}

void NeighborhoodCache::InvalidateRelation(const SpatialIndex* relation) {
  const std::uint64_t relation_id = relation->instance_id();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    std::size_t dropped_bytes = 0;
    for (Links* link = shard->lru.next; link != &shard->lru;) {
      Entry* entry = static_cast<Entry*>(link);
      link = link->next;
      if (entry->key.relation_id != relation_id) continue;
      dropped_bytes += shard->Remove(entry);
      ++shard->invalidated;
    }
    bytes_.fetch_sub(dropped_bytes, std::memory_order_relaxed);
  }
}

NeighborhoodCacheStats NeighborhoodCache::GetStats() const {
  NeighborhoodCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.invalidated += shard->invalidated;
    stats.entries += shard->entries;
    stats.bytes += shard->bytes;
  }
  return stats;
}

Neighborhood CachingKnnSearcher::GetKnn(const Point& query, std::size_t k) {
  if (cache_ == nullptr) return searcher_.GetKnn(query, k);
  Neighborhood neighborhood;
  if (cache_->Lookup(&searcher_.index(), query, k, &neighborhood)) {
    ++searcher_.stats().cache_hits;
    return neighborhood;
  }
  ++searcher_.stats().cache_misses;
  neighborhood = searcher_.GetKnn(query, k);
  cache_->Insert(&searcher_.index(), query, k, neighborhood);
  return neighborhood;
}

}  // namespace knnq
