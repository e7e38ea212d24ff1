// Set-associative texture-cache model in the style of Hakura & Gupta
// (ISCA'97, the paper's reference [7]): cache lines hold square 2-D tiles
// of texels so that the rasterization order's spatial locality turns into
// hits, and misses transfer whole tiles from video memory.
//
// Real GPUs of this era had a small L1 per fragment pipe; the simulator
// instantiates one TextureCache per simulated pipe (so no locking) and the
// device aggregates the statistics. Only *statistics* flow from here into
// the timing model -- texel values are always read from the backing
// texture, so the cache cannot affect functional results.
#pragma once

#include <cstdint>
#include <vector>

namespace hs::gpusim {

struct TextureCacheConfig {
  std::uint64_t total_bytes = 8 * 1024;  ///< capacity per pipe
  int tile_size = 4;                     ///< tile edge, texels (lines are tile x tile)
  int associativity = 4;                 ///< ways per set
  std::uint32_t bytes_per_texel = 16;    ///< RGBA32F by default
};

struct TextureCacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t miss_bytes(const TextureCacheConfig& cfg) const {
    return misses * static_cast<std::uint64_t>(cfg.tile_size) *
           static_cast<std::uint64_t>(cfg.tile_size) * cfg.bytes_per_texel;
  }

  TextureCacheStats& operator+=(const TextureCacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    return *this;
  }
};

class TextureCache {
 private:
  /// Tag and recency stamp interleaved so a probe touches one cache line
  /// per way group instead of two parallel arrays. lru 0 = never used.
  struct Line {
    std::uint64_t tag;
    std::uint64_t lru;
  };

 public:
  explicit TextureCache(const TextureCacheConfig& config);

  /// Records an access to texel (x, y) of texture `texture_id`.
  /// Returns true on hit. Tags are (texture_id, tile_x, tile_y).
  ///
  /// Inline (and with shift/mask fast paths for the common power-of-two
  /// tile size and set count) because the interpreter calls this once per
  /// texel fetch; it dominates cache-model overhead otherwise.
  bool access(std::uint32_t texture_id, int x, int y) {
    const bool hit = access_tag_quiet(make_tag(texture_id, x, y));
    ++stats_.accesses;
    if (hit) {
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    return hit;
  }

  /// The packed (texture, tile_y, tile_x) line tag of texel (x, y); widths
  /// are generous for any texture this library creates. Callers with the
  /// texture id pre-shifted can build tags themselves via tile_shift().
  std::uint64_t make_tag(std::uint32_t texture_id, int x, int y) const {
    std::uint64_t tile_x, tile_y;
    if (tile_shift_ >= 0) {
      // Texel coordinates are wrap-resolved and therefore non-negative, so
      // the shift matches the division below exactly.
      tile_x = static_cast<std::uint32_t>(x) >> tile_shift_;
      tile_y = static_cast<std::uint32_t>(y) >> tile_shift_;
    } else {
      tile_x = static_cast<std::uint64_t>(x / config_.tile_size);
      tile_y = static_cast<std::uint64_t>(y / config_.tile_size);
    }
    return (static_cast<std::uint64_t>(texture_id) << 48) | (tile_y << 24) |
           tile_x;
  }

  /// access() without the statistics updates, on a tag built by
  /// make_tag() (or equivalently, by the caller from tile_shift() and the
  /// id shifted into bits 48+): same set/LRU behaviour, same eviction
  /// sequence.
  bool access_tag_quiet(std::uint64_t tag) {
    // Index hash mixes tile coordinates and texture id so band-stack textures
    // accessed in lockstep do not all collide in one set.
    const std::uint64_t h = tag * 0x9E3779B97F4A7C15ULL;
    const std::size_t set =
        set_mask_ != 0
            ? static_cast<std::size_t>((h >> 32) & set_mask_)
            : static_cast<std::size_t>(h >> 32) % static_cast<std::size_t>(num_sets_);

    Line* const p =
        lines_.data() + set * static_cast<std::size_t>(config_.associativity);
    if (ways4_) {
      // Unrolled default geometry: a 4-way set of 16-byte lines is exactly
      // one 64-byte host cache line. Victim choice below is min-lru with
      // first-way-wins ties (strict <), identical to the generic insert().
      if (p[0].tag == tag) { p[0].lru = ++stamp_; return true; }
      if (p[1].tag == tag) { p[1].lru = ++stamp_; return true; }
      if (p[2].tag == tag) { p[2].lru = ++stamp_; return true; }
      if (p[3].tag == tag) { p[3].lru = ++stamp_; return true; }
      Line* v = p;
      if (p[1].lru < v->lru) v = p + 1;
      if (p[2].lru < v->lru) v = p + 2;
      if (p[3].lru < v->lru) v = p + 3;
      v->tag = tag;
      v->lru = ++stamp_;
      return false;
    }
    for (int w = 0; w < config_.associativity; ++w) {
      if (p[w].tag == tag) {
        p[w].lru = ++stamp_;
        return true;
      }
    }
    insert(p, tag);
    return false;
  }

  /// Skip sentinel for ReplaySession::replay_matrix(): a lane holding it
  /// probes nothing (e.g. a border-colored fetch, which the interpreter
  /// does not count either). Not a producible tag -- it would need
  /// texture id 0xFFFF and ~16M-tile coordinates simultaneously, far
  /// beyond any texture this simulator creates.
  static constexpr std::uint64_t kSkipTag = ~0ull;

  /// Register-resident replay driver for a batch caller that *exclusively*
  /// owns the cache for a stretch of probes (the SoA engine's fetch
  /// replay: caches are per logical pipe and one pass slice runs on one
  /// thread, so nothing else touches the cache between construction and
  /// destruction). The recency stamp and the hit/access tallies live in
  /// the session and commit once on destruction, so per-matrix calls pay
  /// no member round-trips.
  class ReplaySession {
   public:
    explicit ReplaySession(TextureCache& cache)
        : cache_(cache), stamp_(cache.stamp_) {}
    ReplaySession(const ReplaySession&) = delete;
    ReplaySession& operator=(const ReplaySession&) = delete;
    ~ReplaySession() {
      cache_.stamp_ = stamp_;
      cache_.add_accesses(accesses_, hits_);
    }

    /// Replays an `na x lanes` lane-major matrix of probe tags -- the
    /// canonical fragment-major replay order of a tile-batched engine:
    /// for each lane l in order, probes rows[0][l], rows[1][l], ...,
    /// rows[na-1][l]. kSkipTag lanes are skipped (uncounted). Probe
    /// order, lru updates and victim choice are exactly those of
    /// access_tag_quiet(), so the eviction sequence -- and with it every
    /// statistic -- is identical to per-fetch access() calls in the same
    /// order. Everything mutable stays in locals for the whole matrix
    /// (the lru stores are plain uint64 writes that would otherwise
    /// alias, and so force reloads of, the session's own members).
    void replay_matrix(const std::uint64_t* const* rows, int na, int lanes);

   private:
    TextureCache& cache_;
    std::uint64_t stamp_;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
  };

  /// Settles statistics for `count` access_tag_quiet() probes of which
  /// `hits` hit; access() == access_tag_quiet() + add_accesses(1, hit).
  void add_accesses(std::uint64_t count, std::uint64_t hits) {
    stats_.accesses += count;
    stats_.hits += hits;
    stats_.misses += count - hits;
  }

  void flush();

  const TextureCacheConfig& config() const { return config_; }
  const TextureCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  int num_sets() const { return num_sets_; }

  /// True when a tag's set never depends on its texture id. The set index
  /// is bits [32, 32 + log2(num_sets)) of tag * K, and the id occupies
  /// bits 48+ of the tag. The low 48 bits of a 64-bit product depend only
  /// on the low 48 bits of its factors, so with a power-of-two set count
  /// up to 2^16 the id only decides whether two tags are equal, never
  /// which set a tag lands in. Device::draw()'s replay memo relies on
  /// this to key passes on which units share a texture, not on ids.
  bool set_index_ignores_texture_id() const {
    return (num_sets_ & (num_sets_ - 1)) == 0 && num_sets_ <= (1 << 16);
  }

  /// log2(tile_size) when the tile size is a power of two, -1 otherwise.
  int tile_shift() const { return tile_shift_; }

 private:
  /// Tag value no reachable access can produce: it would need texture id
  /// 0xFFFF.. and ~16M-tile coordinates simultaneously, far beyond any
  /// texture this simulator creates. Lines holding it are invalid; their
  /// lru stamp is 0, below every stamped line, so the LRU victim scan
  /// prefers them exactly like an explicit first-invalid-way search.
  static constexpr std::uint64_t kInvalidTag = ~0ull;

  void insert(Line* base, std::uint64_t tag);

  TextureCacheConfig config_;
  int num_sets_;
  int tile_shift_ = -1;        ///< log2(tile_size), or -1 if not a power of two
  bool ways4_ = false;         ///< associativity == 4 (the default geometry)
  std::uint64_t set_mask_ = 0;  ///< num_sets_ - 1 if a power of two, else 0
  std::uint64_t stamp_ = 0;
  std::vector<Line> lines_;  // num_sets_ * associativity
  TextureCacheStats stats_;
};

}  // namespace hs::gpusim
