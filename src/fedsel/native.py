"""Build, cache and load the compiled kernels.

Every C source in SOURCES goes into one shared library, built on first use
with `cc COMPILE_FLAGS` and cached in the package's __pycache__ under the
SHA-256 of the sources and the compile command. The modules that use a
kernel bind it from the library and check it against their numpy reference
with their own probe, so a failed probe disables only that kernel. Without a
compiler, or when the build or the load fails, there is no library and every
kernel falls back to numpy.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# _isa.c comes first: it defines the FEDSEL_CLONES attribute the kernels use
SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("_isa.c", "_sdca.c", "_coalition.c")
)
# No FMA contraction, no value-changing optimisation and no -march: a cached
# library may be loaded on another CPU, where the loader binds each kernel's
# AVX-512, AVX2 or baseline clone (see _isa.c). Each kernel starts on a 64-byte
# boundary, so its loops sit where they would in a library of its own: 32
# bytes further on, the coordinate loop ran 40% slower on an x86-64 host.
COMPILE_FLAGS = ("-O3", "-ffp-contract=off", "-falign-functions=64", "-fPIC", "-shared")
LIBRARY_PREFIX = "_native"
# _sdca.*.so held the coordinate loop alone before the kernels shared a library
_STALE_PATTERNS = (f"{LIBRARY_PREFIX}.*.so", "_sdca.*.so")

F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
POINTERS = np.ctypeslib.ndpointer(dtype=np.uintp, flags="C_CONTIGUOUS")  # of float64 arrays


def _compile(source: bytes, command: list[str], target: Path) -> None:
    """Compile to a unique temporary name, then move it into place atomically."""
    fd, partial = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*command, "-x", "c", "-", "-o", partial], input=source, capture_output=True, check=True
        )
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _remove_stale_libraries(cache_dir: Path, keep: Path) -> None:
    """Best-effort removal of libraries built from other sources or commands."""
    for pattern in _STALE_PATTERNS:
        for stale in cache_dir.glob(pattern):
            if stale != keep:
                try:
                    stale.unlink()
                except OSError:
                    pass


def load_library(compiler: str = "cc", cache_dir: Path | None = None) -> ctypes.CDLL | None:
    """The kernels' shared library, or None when it cannot be built or loaded.

    The library is cached in `cache_dir` (the package's __pycache__ by
    default); a fresh build there removes the libraries of other keys. When
    that directory is not writable it is built in a private temporary
    directory instead. A missing or unreadable source also gives None.
    """
    command = [compiler, *COMPILE_FLAGS]
    cache_dir = Path(__file__).with_name("__pycache__") if cache_dir is None else Path(cache_dir)
    try:
        source = b"\n".join(path.read_bytes() for path in SOURCES)
        key = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()
        target = cache_dir / f"{LIBRARY_PREFIX}.{key}.so"
        if target.exists() or _writable(cache_dir):
            if not target.exists():
                _compile(source, command, target)
                _remove_stale_libraries(cache_dir, keep=target)
            return ctypes.CDLL(str(target))
        with tempfile.TemporaryDirectory(prefix="fedsel-") as private:
            target = Path(private) / target.name
            _compile(source, command, target)
            return ctypes.CDLL(str(target))  # stays mapped once the file is gone
    except (OSError, subprocess.CalledProcessError):
        return None


@functools.cache
def library() -> ctypes.CDLL | None:
    """The process's shared library, built or loaded on first use."""
    return load_library()


def native_isa(lib: ctypes.CDLL | None) -> str | None:
    """The kernel clone the loader binds in `lib` on this CPU: "avx512f",
    "avx2" or "default", or None without a library."""
    if lib is None:
        return None
    report = lib.native_isa
    report.argtypes = []
    report.restype = ctypes.c_char_p
    return report().decode()


def _openblas_symbols(name: str) -> tuple[str, ...]:
    """The names of an OpenBLAS function in its builds: plain, with 64-bit
    integers, and with the symbol prefix of the scipy-openblas wheels numpy
    ships with."""
    return tuple(
        f"{prefix}openblas_{name}{suffix}" for prefix in ("", "scipy_") for suffix in ("", "64_")
    )


_BLAS_THREAD_SYMBOLS = _openblas_symbols("get_num_threads")
# the kernels OpenBLAS picked for this CPU at load time, which a DYNAMIC_ARCH
# build's configuration string does not name
_BLAS_CORE_SYMBOLS = _openblas_symbols("get_corename")


def blas() -> dict:
    """numpy's BLAS: "name" and "version" from numpy's build configuration,
    and from the loaded library "threads" (its get_num_threads) and "core"
    (its get_corename: the kernels that run, such as "SkylakeX", where the
    build configuration may name others); each is None where it cannot be
    read."""
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        config = {}
    core = _blas_call(_BLAS_CORE_SYMBOLS, ctypes.c_char_p)
    return {
        "name": config.get("name"),
        "version": config.get("version"),
        "threads": _blas_call(_BLAS_THREAD_SYMBOLS, ctypes.c_int),
        "core": None if core is None else core.decode(errors="replace"),
    }


def _blas_call(symbols: tuple[str, ...], restype):
    """The result of the first of `symbols` found in a loaded BLAS library,
    called without arguments, or None; the libraries are found in the
    process's memory map (so None off Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = dict.fromkeys(
                line.split()[-1] for line in maps if "blas" in Path(line.split()[-1]).name.lower()
            )
        for path in paths:
            library = ctypes.CDLL(path)  # already loaded: the same handle
            for symbol in symbols:
                if hasattr(library, symbol):
                    function = getattr(library, symbol)
                    function.argtypes = []
                    function.restype = restype
                    return function()
    except OSError:
        pass
    return None
