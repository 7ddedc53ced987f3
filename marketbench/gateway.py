"""The gateway process of the ``http`` workload, and its traced launcher.

:class:`GatewayProcess` starts the market gateway as its own process —
``python -m repro.platform.http --store … --port 0`` for timed runs — and
reads the URL from the first line of its (unbuffered) stdout.  Its stderr
is discarded: the ``-m`` launch prints a runpy ``RuntimeWarning``.  Before
stopping it with SIGTERM the harness reads the process's peak RSS
(``VmHWM``) and CPU time from ``/proc``.

Run as a script, this file is the *traced* launcher: it does what
``repro.platform.http.main`` does, plus the per-layer span wrappers of
``spans.py``, and writes the spans to ``--spans`` when SIGTERM arrives.
Like the plain gateway under SIGTERM, it exits without closing the
service, so both leave the same store behind::

    python3 marketbench/gateway.py --store market.db --port 0 \\
        --token TOKEN=PRINCIPAL --spans spans.jsonl
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent


class GatewayProcess:
    """One gateway process serving ``store``; ``spans`` selects the
    traced launcher and the file it writes its spans to."""

    def __init__(self, root: Path, store: Path, tokens: dict[str, str],
                 spans: Path | None = None):
        if spans is None:
            program = ["-m", "repro.platform.http"]
        else:
            program = [str(HERE / "gateway.py"), "--spans", str(spans)]
        self.argv = [sys.executable, "-u", *program, "--store", str(store),
                     "--port", "0"]
        for token, principal in tokens.items():
            self.argv += ["--token", f"{token}={principal}"]
        self.env = dict(os.environ, PYTHONUNBUFFERED="1",
                        PYTHONPATH=str(root / "src"))
        self.root = root
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 120.0) -> str:
        """Launch and return the gateway URL (its first stdout line)."""
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"gateway did not announce a URL: {line!r}")
        return line[line.index("http://"):].strip()

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])   # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--token", action="append", default=[])
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.platform import (
        DataMarket, MarketGateway, MarketService, MarketStore,
    )

    tokens = dict(pair.split("=", 1) for pair in args.token)
    market = DataMarket(store=MarketStore(args.store))
    spans.trace_subscribers(recorder, market)
    service = MarketService(market)
    gateway = MarketGateway(service, tokens=tokens, port=args.port).start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    print(f"market gateway listening on {gateway.url}", flush=True)
    while not stop.wait(1.0):
        pass
    gateway.stop()
    spans.dump(recorder.spans, args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
