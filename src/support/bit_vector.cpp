#include "support/bit_vector.hpp"

#include "support/error.hpp"

namespace gmt
{

void
BitVector::setAll()
{
    for (auto &w : words_)
        w = ~uint64_t{0};
    trimTail();
}

void
BitVector::clearAll()
{
    for (auto &w : words_)
        w = 0;
}

bool
BitVector::empty() const
{
    for (auto w : words_) {
        if (w)
            return false;
    }
    return true;
}

size_t
BitVector::count() const
{
    size_t n = 0;
    for (auto w : words_)
        n += __builtin_popcountll(w);
    return n;
}

bool
BitVector::unionWith(const BitVector &other)
{
    GMT_ASSERT(size_ == other.size_);
    bool changed = false;
    for (size_t i = 0; i < words_.size(); ++i) {
        uint64_t before = words_[i];
        words_[i] |= other.words_[i];
        changed |= (words_[i] != before);
    }
    return changed;
}

bool
BitVector::intersectWith(const BitVector &other)
{
    GMT_ASSERT(size_ == other.size_);
    bool changed = false;
    for (size_t i = 0; i < words_.size(); ++i) {
        uint64_t before = words_[i];
        words_[i] &= other.words_[i];
        changed |= (words_[i] != before);
    }
    return changed;
}

bool
BitVector::assignTransfer(const BitVector &in, const BitVector &gen,
                          const BitVector &kill)
{
    GMT_ASSERT(size_ == in.size_ && size_ == gen.size_ &&
               size_ == kill.size_);
    bool changed = false;
    for (size_t i = 0; i < words_.size(); ++i) {
        uint64_t next = gen.words_[i] | (in.words_[i] & ~kill.words_[i]);
        changed |= (words_[i] != next);
        words_[i] = next;
    }
    return changed;
}

bool
BitVector::subtract(const BitVector &other)
{
    GMT_ASSERT(size_ == other.size_);
    bool changed = false;
    for (size_t i = 0; i < words_.size(); ++i) {
        uint64_t before = words_[i];
        words_[i] &= ~other.words_[i];
        changed |= (words_[i] != before);
    }
    return changed;
}

void
BitVector::trimTail()
{
    size_t tail = size_ % kBits;
    if (tail != 0 && !words_.empty())
        words_.back() &= (uint64_t{1} << tail) - 1;
}

} // namespace gmt
