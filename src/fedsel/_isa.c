/* Which instruction-set clone of the kernels runs.
 *
 * fedsel.native compiles this file first and the kernel sources after it into
 * one translation unit, so FEDSEL_CLONES is defined for every kernel. On
 * x86-64 ELF targets (the loader binds a clone through an ifunc) with a GCC
 * or Clang that has target_clones, it makes the compiler emit an AVX-512F, an
 * AVX2 and a baseline body of each kernel, and the loader's resolver binds
 * the widest body the CPU runs: the library needs no -march and still runs
 * on any x86-64 CPU. Define FEDSEL_NO_TARGET_CLONES, or build anywhere else,
 * and the plain function is emitted. Vector width changes no result:
 * without -ffast-math the compiler never reassociates a floating-point sum,
 * so the certificate's sums keep their source order in every body, and
 * neither the AVX-512F nor the AVX2 target includes FMA (-ffp-contract=off
 * forbids contraction anyway), so all bodies round every operation alike
 * and give the same bytes.
 *
 * On a 2-core AVX-512 host the AVX-512F body took the walk kernel's six
 * calls of a grid truncated Monte-Carlo pass from 0.65-0.70 s to
 * 0.43-0.45 s, on two row ranges each.
 */
#include <stdint.h>

#if !defined(FEDSEL_NO_TARGET_CLONES) && defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FEDSEL_HAS_CLONES 1
#define FEDSEL_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef FEDSEL_CLONES
#define FEDSEL_HAS_CLONES 0
#define FEDSEL_CLONES
#endif

/* The clone the resolver binds: "avx512f", "avx2" or "default". */
const char *native_isa(void)
{
#if FEDSEL_HAS_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return "avx512f";
    return __builtin_cpu_supports("avx2") ? "avx2" : "default";
#else
    return "default";
#endif
}
