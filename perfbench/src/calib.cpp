#include "calib.hpp"

#include <vector>

namespace perfbench
{

namespace
{

/** xorshift64*: deterministic, cheap, no library state. */
struct Rng
{
    uint64_t s;
    uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }
};

struct Op
{
    uint8_t code, a, b, c;
    int32_t imm;
};

} // namespace

uint64_t
calibrationKernel(int iterations)
{
    // A register-machine bytecode interpreter over a 512 KB memory:
    // dispatch over a fixed program, short dependence chains, scattered
    // loads and stores that live in L2, and a data-dependent branch.
    // Of the candidate kernels tried (see ../README.md), this one
    // tracked the pipeline's round time best on a shared host, within
    // a run and from one stretch of time to the next, for the
    // sim-bound and the compile-bound rounds alike. The branch picks
    // between two equally cheap operations, so every call does the
    // same work whatever the memory holds; the memory is allocated
    // once because allocating 512 KB per call would time the OS.
    constexpr uint64_t kMemMask = (uint64_t{1} << 16) - 1;
    static std::vector<int64_t> mem(kMemMask + 1);

    Rng rng{42};
    std::vector<Op> prog(64);
    for (Op &op : prog) {
        op.code = static_cast<uint8_t>(rng.next() % 6);
        op.a = static_cast<uint8_t>(rng.next() % 16);
        op.b = static_cast<uint8_t>(rng.next() % 16);
        op.c = static_cast<uint8_t>(rng.next() % 16);
        op.imm = static_cast<int32_t>(rng.next() % (1 << 20));
    }
    int64_t r[16] = {};
    for (int it = 0; it < iterations; ++it) {
        for (const Op &op : prog) {
            const uint64_t addr =
                static_cast<uint64_t>(r[op.b]) * 2654435761u +
                static_cast<uint64_t>(op.imm);
            switch (op.code) {
            case 0: r[op.a] = r[op.b] + r[op.c]; break;
            case 1: r[op.a] = r[op.b] ^ (r[op.c] + op.imm); break;
            case 2: r[op.a] = mem[addr & kMemMask]; break;
            case 3: mem[addr & kMemMask] = r[op.a]; break;
            case 4:
                if (r[op.a] & 1)
                    r[op.c] += op.imm;
                else
                    r[op.c] ^= op.imm;
                break;
            default: r[op.a] = r[op.b] * (op.imm | 1); break;
            }
        }
    }
    return static_cast<uint64_t>(r[3] + mem[7]);
}

} // namespace perfbench
