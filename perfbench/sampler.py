"""Run a child process and, optionally, sample its program counter from outside.

Sampling uses ptrace (PTRACE_SEIZE + PTRACE_INTERRUPT) on the child's main
thread, so the program under test needs no instrumentation.  Each sample's
program counter is resolved to the enclosing symbol of the executable, and
the symbol to a layer of the program (see `Layers`).  Only x86_64 and aarch64
Linux are supported; elsewhere sampling raises `SamplingUnavailable`.
"""

import bisect
import ctypes
import os
import platform
import re
import signal
import struct
import subprocess
import threading
import time
from pathlib import Path

PTRACE_CONT = 7
PTRACE_GETREGSET = 0x4204
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
NT_PRSTATUS = 1
WALL = 0x40000000  # __WALL
# index of the program counter in the NT_PRSTATUS register set
PC_INDEX = {"x86_64": 16, "aarch64": 32}
SAMPLE_INTERVAL_S = 0.001


class SamplingUnavailable(RuntimeError):
    pass


class Job:
    """What one finished child left behind."""

    def __init__(self, returncode, stdout, stderr, wall_s, rusage, pcs, exe_ranges):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.rusage = rusage
        self.pcs = pcs
        self.exe_ranges = exe_ranges  # [(start, end, load_bias)] of the executable


class _Iovec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


class _Tracer:
    def __init__(self):
        arch = platform.machine()
        if platform.system() != "Linux" or arch not in PC_INDEX:
            raise SamplingUnavailable(f"no sampler for {platform.system()}/{arch}")
        self.libc = ctypes.CDLL(None, use_errno=True)
        self.libc.ptrace.restype = ctypes.c_long
        self.libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
        self.regs = (ctypes.c_ulong * 128)()
        self.iov = _Iovec(ctypes.cast(self.regs, ctypes.c_void_p), ctypes.sizeof(self.regs))
        self.pc_index = PC_INDEX[arch]

    def call(self, request, pid, addr=None, data=None):
        if self.libc.ptrace(request, pid, addr, data) == -1:
            err = ctypes.get_errno()
            raise OSError(err, os.strerror(err))

    def pc(self, pid):
        self.call(PTRACE_GETREGSET, pid, NT_PRSTATUS, ctypes.addressof(self.iov))
        return self.regs[self.pc_index]


_tracer = None


def _exe_ranges(pid, exe):
    """Executable mappings of `exe` in `pid`, with the load bias of a PIE."""
    with open(exe, "rb") as f:
        pie = struct.unpack_from("<H", f.read(18), 16)[0] == 3  # ET_DYN
    real = os.path.realpath(exe)
    base, ranges = None, []
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) < 6 or os.path.realpath(fields[5]) != real:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            if base is None:
                base = start - int(fields[2], 16)
            if "x" in fields[1]:
                ranges.append((start, end))
    bias = base if pie and base is not None else 0
    return [(s, e, bias) for s, e in ranges]


def run(cmd, env, sample=False, timeout_s=170.0):
    """Run `cmd` to completion; return a `Job` (rusage of this child alone)."""
    global _tracer
    if sample and _tracer is None:
        _tracer = _Tracer()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = [], []
    readers = [threading.Thread(target=lambda s=s, b=b: b.append(s.read()))
               for s, b in ((proc.stdout, out), (proc.stderr, err))]
    for r in readers:
        r.start()
    pcs, ranges = [], []
    deadline = t0 + timeout_s
    status = rusage = None
    try:
        if sample:
            try:
                _tracer.call(PTRACE_SEIZE, proc.pid)
            except OSError as e:
                raise SamplingUnavailable(f"ptrace refused: {e}") from e
            while status is None:
                time.sleep(SAMPLE_INTERVAL_S)
                if time.perf_counter() > deadline:
                    raise TimeoutError(" ".join(cmd))
                try:
                    _tracer.call(PTRACE_INTERRUPT, proc.pid)
                except OSError:
                    pass  # already exiting; the wait below reports it
                _, st, ru = os.wait4(proc.pid, WALL)
                if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                    status, rusage = st, ru
                elif os.WSTOPSIG(st) == signal.SIGTRAP and st >> 16 == PTRACE_EVENT_STOP:
                    pcs.append(_tracer.pc(proc.pid))
                    if not ranges:
                        ranges = _exe_ranges(proc.pid, cmd[0])
                    _tracer.call(PTRACE_CONT, proc.pid)
                elif st >> 16 == PTRACE_EVENT_STOP:
                    _tracer.call(PTRACE_CONT, proc.pid)  # group stop: resume
                else:
                    _tracer.call(PTRACE_CONT, proc.pid, None, os.WSTOPSIG(st))
        else:
            killer = threading.Timer(timeout_s, proc.kill)
            killer.start()
            _, status, rusage = os.wait4(proc.pid, 0)
            killer.cancel()
            if time.perf_counter() > deadline:
                raise TimeoutError(" ".join(cmd))
    except BaseException:
        if status is None:
            proc.kill()
            while True:
                _, st = os.waitpid(proc.pid, WALL)
                if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                    break
        proc.returncode = -1
        for r in readers:
            r.join()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Job(proc.returncode, out[0].decode(errors="replace"),
               err[0].decode(errors="replace"), wall, rusage, pcs, ranges)


# OCaml code symbols: caml<Module>[__<Submodule>]<sep><name>, where the
# separator is "." up to OCaml 5.1 and "$" from 5.2 on
_OCAML_SYMBOL = re.compile(r"caml([A-Z]\w*?)(?:__\w+)?[.$]")
# C runtime symbols of the OCaml collector and allocator
_GC_SYMBOL = re.compile(
    r"minor|major|oldify|mark|sweep|darken|alloc|gc|compact|final|ephe|pool"
    r"|caml_modify|caml_initialize|barrier|stw|spin|heap|promot|orphan")


class Layers:
    """Maps program counters of one executable to the program's layers.

    The layer of an OCaml module follows the source directory that holds
    it, so modules added to a directory later land in the right layer.
    """

    # (directory under lib/, file stem or None for the whole directory)
    SOURCE_LAYERS = [
        ("sim", "mux", "dispatch"),
        ("sim", "event_queue", "dispatch"),
        ("sim", None, "machine"),
        ("svc", None, "service"),
        ("protocols", None, "protocol"),
        ("consensus", None, "protocol"),
        ("txn", None, "kv"),
        ("stats", "histogram", "histogram"),
        ("mc", None, "checker"),
        ("kernel", "fingerprint", "fingerprint"),
        ("kernel", "symmetry", "fingerprint"),
    ]
    NAMES = ["service", "dispatch", "machine", "protocol", "kv", "histogram",
             "checker", "fingerprint", "stdlib", "gc", "runtime", "libc", "other"]

    def __init__(self, exe, root):
        self.module_layer = {}
        for path in sorted(Path(root, "lib").rglob("*.ml")):
            rel = path.relative_to(Path(root, "lib")).parts
            for directory, stem, layer in self.SOURCE_LAYERS:
                if rel[0] == directory and stem in (None, path.stem):
                    self.module_layer.setdefault(path.stem.capitalize(), layer)
        listing = subprocess.run(["nm", "--defined-only", "-n", exe],
                                 capture_output=True, text=True, check=True).stdout
        self.addrs, self.layers = [], []
        for line in listing.splitlines():
            fields = line.split()
            if len(fields) == 3 and fields[1] in "tTwW":
                self.addrs.append(int(fields[0], 16))
                self.layers.append(self._layer(fields[2]))

    def _layer(self, symbol):
        ocaml = _OCAML_SYMBOL.match(symbol)
        if ocaml:
            module = ocaml.group(1)
            if module == "Stdlib" or module.startswith("Camlinternal"):
                return "stdlib"
            return self.module_layer.get(module, "other")
        return "gc" if _GC_SYMBOL.search(symbol) else "runtime"

    def count(self, job, counts):
        for pc in job.pcs:
            for start, end, bias in job.exe_ranges:
                if start <= pc < end:
                    i = bisect.bisect_right(self.addrs, pc - bias) - 1
                    layer = self.layers[i] if i >= 0 else "runtime"
                    break
            else:
                layer = "libc"  # shared libraries: libc, libm
            counts[layer] = counts.get(layer, 0) + 1
