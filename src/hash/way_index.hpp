/**
 * @file
 * Devirtualized per-way index computation for skewed/zcache arrays.
 *
 * A W-way zcache lookup evaluates W hash functions per access, and every
 * walk level evaluates W-1 more per expanded node — on the hot path this
 * made the virtual HashFunction::hash() call the single largest source
 * of call overhead in the simulator. WayIndexer inspects a hash family
 * once at construction: when every way is the same concrete type (H3,
 * folded-XOR, bit-select or the strong mixer) it copies the few words of
 * per-way state into flat contiguous tables and evaluates the family
 * with direct, inlinable code; otherwise it falls back to the virtual
 * interface. H3 goes one step further: it is linear over GF(2), so
 * h(a) is the XOR of h(byte_k(a) << 8k) over the address's 8 bytes, and
 * each way precomputes those 8 x 256 partial hashes once — a lookup is
 * 8 table reads and XORs instead of one parity per output bit. The
 * virtual HashFunction hierarchy stays the source of truth for
 * factories and tests — WayIndexer is a pure evaluation cache, and
 * test_walk_equivalence.cpp proves both paths bit-identical for every
 * hash kind.
 *
 * Positions are returned in the array's flat BlockPos space:
 * way * linesPerWay + hash_way(addr).
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "hash/bit_select_hash.hpp"
#include "hash/folded_xor_hash.hpp"
#include "hash/h3_hash.hpp"
#include "hash/hash_function.hpp"
#include "hash/strong_hash.hpp"

namespace zc {

class WayIndexer
{
  public:
    WayIndexer() = default;

    WayIndexer(const std::vector<HashPtr>& hashes,
               std::uint32_t lines_per_way)
    {
        build(hashes, lines_per_way);
    }

    /**
     * Snapshot the family's state. @p hashes must outlive this indexer
     * only in Generic mode (raw pointers are kept); the specialized
     * modes copy everything they need.
     */
    void
    build(const std::vector<HashPtr>& hashes, std::uint32_t lines_per_way)
    {
        zc_assert(!hashes.empty());
        zc_assert(isPow2(lines_per_way));
        ways_ = static_cast<std::uint32_t>(hashes.size());
        linesPerWay_ = lines_per_way;
        mask_ = lines_per_way - 1;
        outBits_ = log2Floor(lines_per_way);

        mode_ = detect(hashes, outBits_);
        h3Narrow_.clear();
        h3Wide_.clear();
        salts_.clear();
        seeds_.clear();
        generic_.clear();
        switch (mode_) {
          case Mode::H3:
            buildH3Tables(hashes, h3Narrow_);
            break;
          case Mode::H3Wide:
            buildH3Tables(hashes, h3Wide_);
            break;
          case Mode::FoldedXor:
            for (const auto& h : hashes) {
                salts_.push_back(
                    static_cast<const FoldedXorHash&>(*h).saltConstant());
            }
            break;
          case Mode::Strong:
            for (const auto& h : hashes) {
                seeds_.push_back(
                    static_cast<const StrongHash&>(*h).seed());
            }
            break;
          case Mode::BitSelect:
            break; // the mask is the whole state
          case Mode::Generic:
            for (const auto& h : hashes) generic_.push_back(h.get());
            break;
        }
    }

    std::uint32_t ways() const { return ways_; }

    /** Position of @p lineAddr in @p way (flat BlockPos space). */
    BlockPos
    position(std::uint32_t way, Addr lineAddr) const
    {
        std::uint64_t h;
        switch (mode_) {
          case Mode::H3:
            h = h3One(&h3Narrow_[std::size_t{way} * kH3Table], lineAddr);
            break;
          case Mode::H3Wide:
            h = h3One(&h3Wide_[std::size_t{way} * kH3Table], lineAddr);
            break;
          case Mode::FoldedXor:
            h = foldedOne(lineAddr + salts_[way]);
            break;
          case Mode::BitSelect:
            h = lineAddr & mask_;
            break;
          case Mode::Strong:
            h = strongOne(lineAddr, seeds_[way]);
            break;
          default:
            h = generic_[way]->hash(lineAddr);
            break;
        }
        return static_cast<BlockPos>(way * linesPerWay_ + h);
    }

    /**
     * Compute all W way positions of @p lineAddr in one batched call.
     * @p out must hold ways() entries. One mode dispatch for the whole
     * family; the per-way inner loops run over contiguous state.
     */
    void
    positionsAll(Addr lineAddr, BlockPos* out) const
    {
        switch (mode_) {
          case Mode::H3:
            h3All(h3Narrow_.data(), lineAddr, out);
            return;
          case Mode::H3Wide:
            h3All(h3Wide_.data(), lineAddr, out);
            return;
          case Mode::FoldedXor:
            for (std::uint32_t w = 0; w < ways_; w++) {
                out[w] = static_cast<BlockPos>(
                    w * linesPerWay_ + foldedOne(lineAddr + salts_[w]));
            }
            return;
          case Mode::BitSelect:
            for (std::uint32_t w = 0; w < ways_; w++) {
                out[w] = static_cast<BlockPos>(w * linesPerWay_ +
                                               (lineAddr & mask_));
            }
            return;
          case Mode::Strong:
            for (std::uint32_t w = 0; w < ways_; w++) {
                out[w] = static_cast<BlockPos>(
                    w * linesPerWay_ + strongOne(lineAddr, seeds_[w]));
            }
            return;
          default:
            for (std::uint32_t w = 0; w < ways_; w++) {
                out[w] = static_cast<BlockPos>(
                    w * linesPerWay_ + generic_[w]->hash(lineAddr));
            }
            return;
        }
    }

    /** Evaluation mode, for tests and telemetry. */
    const char*
    modeName() const
    {
        switch (mode_) {
          case Mode::H3:
          case Mode::H3Wide: return "h3-batched";
          case Mode::FoldedXor: return "fxor-batched";
          case Mode::BitSelect: return "bitsel-batched";
          case Mode::Strong: return "strong-batched";
          default: return "generic-virtual";
        }
    }

    bool devirtualized() const { return mode_ != Mode::Generic; }

  private:
    /** H3 splits by table entry width: uint16 up to 16 output bits. */
    enum class Mode { Generic, H3, H3Wide, FoldedXor, BitSelect, Strong };

    /** Entries per way: one 256-entry table per address byte. */
    static constexpr std::size_t kH3Table = 8 * 256;

    static Mode
    detect(const std::vector<HashPtr>& hashes, std::uint32_t out_bits)
    {
        // Specialize only when every way is the same concrete type; a
        // mixed family (bespoke test fixtures) stays on the virtual path.
        if (allOf<H3Hash>(hashes)) {
            return out_bits <= 16 ? Mode::H3 : Mode::H3Wide;
        }
        if (allOf<FoldedXorHash>(hashes)) return Mode::FoldedXor;
        if (allOf<BitSelectHash>(hashes)) return Mode::BitSelect;
        if (allOf<StrongHash>(hashes)) return Mode::Strong;
        return Mode::Generic;
    }

    template <typename T>
    static bool
    allOf(const std::vector<HashPtr>& hashes)
    {
        for (const auto& h : hashes) {
            if (dynamic_cast<const T*>(h.get()) == nullptr) return false;
        }
        return true;
    }

    /**
     * Build every way's byte tables, way-major: entry [w][b][v] is way
     * w's H3 hash of the address whose only nonzero byte is byte b = v.
     * Output bit i of an address is the parity of addr & rows[i], so
     * that is the XOR of the matrix columns of v's set bits: entry v is
     * entry v-without-its-lowest-bit XOR that bit's column.
     */
    template <typename T>
    void
    buildH3Tables(const std::vector<HashPtr>& hashes,
                  std::vector<T>& tables) const
    {
        tables.reserve(ways_ * kH3Table);
        for (const auto& h : hashes) {
            const auto& rows = static_cast<const H3Hash&>(*h).rows();
            zc_assert(rows.size() == outBits_);
            for (std::uint32_t b = 0; b < 8; b++) {
                std::size_t base = tables.size();
                tables.push_back(0);
                for (std::uint32_t v = 1; v < 256; v++) {
                    std::uint32_t bit = 8 * b + std::countr_zero(v);
                    std::uint64_t column = 0;
                    for (std::size_t i = 0; i < rows.size(); i++) {
                        column |= ((rows[i] >> bit) & 1) << i;
                    }
                    tables.push_back(static_cast<T>(
                        tables[base + (v & (v - 1))] ^ column));
                }
            }
        }
    }

    // H3Hash::hash() by linearity: the XOR of the 8 bytes' partial hashes.
    template <typename T>
    static std::uint64_t
    h3One(const T* t, Addr lineAddr)
    {
        std::uint64_t h = 0;
        for (std::uint32_t b = 0; b < 8; b++) {
            h ^= t[b * 256 + ((lineAddr >> (8 * b)) & 0xff)];
        }
        return h;
    }

    template <typename T>
    void
    h3All(const T* tables, Addr lineAddr, BlockPos* out) const
    {
        for (std::uint32_t w = 0; w < ways_; w++) {
            out[w] = static_cast<BlockPos>(
                w * linesPerWay_ + h3One(tables + w * kH3Table, lineAddr));
        }
    }

    // Mirrors FoldedXorHash::hash() with the salt pre-added.
    std::uint64_t
    foldedOne(std::uint64_t v) const
    {
        std::uint64_t out = 0;
        while (v != 0) {
            out ^= v & mask_;
            v >>= outBits_;
        }
        return out;
    }

    // Mirrors StrongHash::hash().
    std::uint64_t
    strongOne(Addr lineAddr, std::uint64_t seed) const
    {
        std::uint64_t z = lineAddr + seed * 0x9e3779b97f4a7c15ULL +
                          0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z = z ^ (z >> 31);
        return z & mask_;
    }

    Mode mode_ = Mode::Generic;
    std::uint32_t ways_ = 0;
    std::uint32_t linesPerWay_ = 0;
    std::uint32_t outBits_ = 0;
    std::uint64_t mask_ = 0;
    std::vector<std::uint16_t> h3Narrow_; ///< way-major byte tables, H3
    std::vector<std::uint32_t> h3Wide_;   ///< same, for outBits_ > 16
    std::vector<std::uint64_t> salts_;  ///< folded-XOR additive constants
    std::vector<std::uint64_t> seeds_;  ///< strong-mixer seeds
    std::vector<const HashFunction*> generic_; ///< fallback (non-owning)
};

} // namespace zc
