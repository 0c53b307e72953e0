"""Build, cache and load the compiled kernels, and record which of them run.

Every C source in SOURCES goes into one shared library, built on first use
with `COMPILER COMPILE_FLAGS` and cached in the package's __pycache__ under
the SHA-256 of the sources and the compile command. `kernel` binds each
kernel once per process and checks it with its module's probe against the
numpy reference, so a failed probe disables only that kernel; without a
library every kernel falls back to numpy. FAST_PATHS records each outcome and
why numpy runs. `lanes` and `run_concurrently` are the kernels' one fan-out.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
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
COMPILER = "cc"
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


def load_library(compiler: str = COMPILER, cache_dir: Path | None = None) -> ctypes.CDLL:
    """The kernels' shared library, built with `compiler` where not cached.

    The library is cached in `cache_dir` (the package's __pycache__ by
    default); a fresh build there removes the libraries of other keys. When
    that directory is not writable it is built in a private temporary
    directory instead. Raises OSError where the compiler is missing or a
    source or the library cannot be read or loaded, and CalledProcessError
    where the build fails.
    """
    command = [compiler, *COMPILE_FLAGS]
    cache_dir = Path(__file__).with_name("__pycache__") if cache_dir is None else Path(cache_dir)
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


# name -> {"status": "c" or "numpy", "reason": None or why numpy runs}, the library's with "clone"
FAST_PATHS: dict[str, dict] = {}
_BOUND: dict[str, object] = {}  # name -> the library or kernel that runs, or None


def library() -> ctypes.CDLL | None:
    """The process's shared library, built or loaded on first use, or None.

    Recorded under "library" in FAST_PATHS, with the kernel clone the loader
    binds on this CPU ("avx512f", "avx2" or "default") or the reason: "no
    compiler", "build failed: " and the compiler's first stderr line (or its
    exit status), or the read or load error."""
    if "library" not in _BOUND:
        lib = reason = clone = None
        try:
            lib = load_library(COMPILER)
            clone = bind(lib, "native_isa", [], ctypes.c_char_p, callable)().decode()
        except subprocess.CalledProcessError as error:
            lines = (error.stderr or b"").decode(errors="replace").strip().splitlines()
            reason = f"build failed: {lines[0] if lines else f'exit {error.returncode}'}"
        except OSError as error:
            missing = isinstance(error, FileNotFoundError) and error.filename == COMPILER
            reason = "no compiler" if missing else str(error)
        _BOUND["library"] = lib
        FAST_PATHS["library"] = dict(status="numpy" if reason else "c", reason=reason, clone=clone)
    return _BOUND["library"]


def bind(lib: ctypes.CDLL, name: str, argtypes: list, restype, probe):
    """lib's function `name`, typed, or None when probe(function) is false."""
    function = getattr(lib, name)
    function.argtypes, function.restype = argtypes, restype
    return function if probe(function) else None


def kernel(name: str, argtypes: list, restype, probe):
    """The process's kernel `name`, bound and probed on first use (see bind), or None where
    numpy runs; recorded in FAST_PATHS with the reason "no library" or "probe mismatch"."""
    if name not in _BOUND:
        lib = library()
        function = None if lib is None else bind(lib, name, argtypes, restype, probe)
        reason = "no library" if lib is None else "probe mismatch" if function is None else None
        _BOUND[name] = function
        FAST_PATHS[name] = dict(status="numpy" if reason else "c", reason=reason)
    return _BOUND[name]


def lanes() -> int:
    """Most lanes one fan-out of compiled calls runs on: two per usable CPU
    (see valuation.RANGE_WORK)."""
    if hasattr(os, "sched_getaffinity"):
        return 2 * len(os.sched_getaffinity(0))
    return 2 * (os.cpu_count() or 1)  # no affinity call on this platform (macOS)


def run_concurrently(calls) -> None:
    """Run every call: the first on this thread, each other on a thread started
    and joined here, so no thread outlives the call (a forked child inherits
    none). An error on another thread is raised here once all have finished."""
    errors = []

    def run(call):
        try:
            call()
        except Exception as error:  # handed to the calling thread
            errors.append(error)

    threads = [threading.Thread(target=run, args=(call,)) for call in calls[1:]]
    for thread in threads:
        thread.start()
    try:
        calls[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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
