#ifndef GMT_SUPPORT_BIT_VECTOR_HPP
#define GMT_SUPPORT_BIT_VECTOR_HPP

/**
 * @file
 * A fixed-size dense bit vector with the set operations data-flow
 * analyses need (union, intersection, difference, change detection).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gmt
{

/**
 * Dense bit vector sized at construction.
 *
 * All binary operations require operands of equal size; this is an
 * invariant of the data-flow frameworks built on top (one bit per
 * register / instruction / block).
 */
class BitVector
{
  public:
    BitVector() = default;

    /** Create a vector of @p size bits, all clear. */
    explicit BitVector(size_t size)
        : size_(size), words_((size + kBits - 1) / kBits, 0)
    {
    }

    size_t size() const { return size_; }

    bool
    test(size_t i) const
    {
        return (words_[i / kBits] >> (i % kBits)) & 1;
    }

    void
    set(size_t i)
    {
        words_[i / kBits] |= (uint64_t{1} << (i % kBits));
    }

    void
    reset(size_t i)
    {
        words_[i / kBits] &= ~(uint64_t{1} << (i % kBits));
    }

    void setAll();
    void clearAll();

    /** True if no bit is set. */
    bool empty() const;

    /** Number of set bits. */
    size_t count() const;

    /** this |= other. @return true if this changed. */
    bool unionWith(const BitVector &other);

    /** this &= other. @return true if this changed. */
    bool intersectWith(const BitVector &other);

    /** this -= other (clear every bit set in other). @return changed. */
    bool subtract(const BitVector &other);

    /**
     * this = gen | (in - kill): one block's composed transfer function
     * of a gen/kill data-flow problem. @return true if this changed.
     */
    bool assignTransfer(const BitVector &in, const BitVector &gen,
                        const BitVector &kill);

    bool operator==(const BitVector &other) const = default;

    /** Call @p fn with the index of every set bit, ascending. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t word = words_[w];
            while (word) {
                unsigned bit = __builtin_ctzll(word);
                fn(w * kBits + bit);
                word &= word - 1;
            }
        }
    }

  private:
    static constexpr size_t kBits = 64;

    /** Clear any bits beyond size_ in the last word. */
    void trimTail();

    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace gmt

#endif // GMT_SUPPORT_BIT_VECTOR_HPP
