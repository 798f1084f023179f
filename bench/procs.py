"""Process hygiene: server children, peak RSS, watchdog, leak audit.

Every server the benchmark starts runs in its own session (so its own
process group) with output in a log file under ``bench/out/``; harness and
pool workers are direct children, and so is the resource tracker that
multiprocessing starts beside them.  :func:`kill_everything` is called on
every exit path — normal return, exception, signal and watchdog — and
returns only when every one of them has ended and been waited for.
"""

from __future__ import annotations

import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC_DIR = os.path.join(ROOT, "src")

_BANNER = re.compile(rb"serving .* on ([\w.]+):(\d+) ")
_servers: list["Server"] = []
CPUS = sorted(os.sched_getaffinity(0))  # read before any pinning narrows it


def pin(pid: int, cpus) -> None:
    """Bind every thread of ``pid`` to ``cpus``.

    On a shared two-vCPU host a server left to the scheduler migrates
    between the CPUs and pays for every wake-up on the other one: same
    code, same inputs, 690 to 990 reads/s unpinned against 1,070 to 1,260
    with the server on one CPU and the load generator on the other.
    """
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class Server:
    """One ``python -m repro serve`` subprocess in its own process group."""

    def __init__(self, kb_path: str, *flags: str, tag: str = "server") -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.log_path = os.path.join(OUT_DIR, f"{tag}-{len(_servers)}.log")
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", kb_path, "--port", "0", *flags],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        # While it lives the server has the last CPU and the load generator
        # (this process and the client threads it starts) the first.
        pin(self.proc.pid, CPUS[-1:])
        pin(os.getpid(), CPUS[:1])
        self.port = 0
        self.peak_rss_mb = 0.0
        _servers.append(self)

    def wait_port(self, timeout: float = 60.0) -> int:
        """Poll the log for the banner; returns the bound port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _BANNER.search(handle.read())
            if match:
                self.port = int(match.group(2))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.004)
        raise RuntimeError(f"server did not come up; see {self.log_path}")

    def kill(self) -> None:
        """SIGKILL the whole group and reap it (idempotent)."""
        if self.proc.poll() is None:
            self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb(self.proc.pid))
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self._log.close()
        pin(os.getpid(), CPUS)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"multiprocessing.resource_tracker" in handle.read()
    except OSError:
        return False


def become_subreaper() -> None:
    """Have orphaned grandchildren re-parented to this process, not to init.

    Then a /proc walk from this pid finds every process the run started,
    and ``waitpid`` can wait for each of them.  Best effort: without it the
    direct children (servers, harness and pool workers, multiprocessing's
    resource tracker) are still found.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except Exception:
        pass


def descendants(root: int | None = None) -> list[int]:
    """Live pids below ``root`` (default: this process), from /proc."""
    root = os.getpid() if root is None else root
    parent_of = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] == "Z":  # zombies are dead, just unreaped
            continue
        parent_of[int(name)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found += kids
        frontier += kids
    return found


def _kill(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _release_resource_tracker() -> None:
    """Close our end of the tracker's pipe: at EOF it cleans up and exits.

    multiprocessing starts the tracker with the first spawned worker and
    never stops it; left alone it ends only some milliseconds after this
    process, which is a process left running after the run.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = None
        try:
            os.close(fd)
        except OSError:
            pass


def _reap_children() -> bool:
    """Collect every child that has ended; True once there is no child left."""
    if "multiprocessing" in sys.modules:
        sys.modules["multiprocessing"].active_children()  # joins its finished workers
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def kill_everything(grace_s: float = 3.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Servers die with their process groups, harness and pool workers by a
    /proc walk; the resource tracker is asked to finish (it unlinks what
    killed workers leaked) and is killed like the rest if it has not within
    ``grace_s``.  Idempotent; called on every exit path.
    """
    for server in _servers:
        try:
            server.kill()
        except Exception:  # an exit path must not stop at the first failure
            pass
    _kill(pid for pid in descendants() if not _is_resource_tracker(pid))
    _release_resource_tracker()
    start = time.monotonic()
    while not (_reap_children() and not descendants()):
        waited = time.monotonic() - start
        if waited > 3 * grace_s:  # unkillable; the leak audit reports it
            break
        if waited > grace_s:
            _kill(descendants())
        time.sleep(0.002)


def leak_audit(data_dirs=()) -> list[str]:
    """What survived: live descendants, unreaped servers, held data-dir locks."""
    problems = [f"surviving child pid {pid}" for pid in descendants()]
    problems += [
        f"server pid {s.proc.pid} not reaped" for s in _servers if s.proc.poll() is None
    ]
    for data_dir in data_dirs:
        lock = os.path.join(data_dir, "lock.pid")
        try:
            with open(lock) as handle:
                owner = int(handle.read().strip() or 0)
        except (OSError, ValueError):
            continue
        if owner and os.path.exists(f"/proc/{owner}"):
            problems.append(f"{lock} held by live pid {owner}")
    return problems


class Watchdog:
    """Wall-clock limit for one workload: kill the children and exit 3."""

    def __init__(self, seconds: float, what: str) -> None:
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True
        self._what = what
        self._seconds = seconds

    def _fire(self) -> None:
        print(
            f"bench: watchdog: {self._what} exceeded {self._seconds:.0f}s; aborting",
            file=sys.stderr,
            flush=True,
        )
        kill_everything()
        os._exit(3)

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()
