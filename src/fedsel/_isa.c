/* Which instruction-set clone of the kernels runs.
 *
 * fedsel.native compiles this file first and the kernel sources after it into
 * one translation unit, so FEDSEL_CLONES is defined for every kernel. On
 * x86-64 ELF targets (the loader binds a clone through an ifunc) with a GCC
 * or Clang that has target_clones, it makes the compiler emit an AVX2 and a
 * baseline body of the function, and the loader's resolver binds the AVX2
 * body when the CPU has AVX2: the library needs no -march and still runs on
 * any x86-64 CPU. Define FEDSEL_NO_TARGET_CLONES, or build anywhere else,
 * and the plain function is emitted. The AVX2 target does not
 * include FMA, and -ffp-contract=off forbids contraction anyway, so both
 * bodies round every operation alike and give the same bytes.
 */
#include <stdint.h>

#if !defined(FEDSEL_NO_TARGET_CLONES) && defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FEDSEL_HAS_CLONES 1
#define FEDSEL_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef FEDSEL_CLONES
#define FEDSEL_HAS_CLONES 0
#define FEDSEL_CLONES
#endif

/* The clone the resolver binds: "avx2" or "default". */
const char *native_isa(void)
{
#if FEDSEL_HAS_CLONES
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? "avx2" : "default";
#else
    return "default";
#endif
}
