"""Shard lifecycle: start N shard servers, kill them, clean them up.

Two modes, one surface:

* ``threads`` — every shard is a :class:`ShardService` +
  :class:`~repro.serving.server.TardisServer` inside the current
  process, bound to a loopback port.  Cheap and deterministic; what the
  test suite and the chaos harness use.  ``kill_shard`` performs an
  *ungraceful* stop (socket torn down, queue failed) so failover tests
  exercise the real connection-refused path.
* ``processes`` — every shard is a spawned process that loads its
  partition subset from a persisted index directory
  (:func:`repro.core.persistence.load_index` with ``partition_ids``:
  Tardis-G plus the files of the partitions it hosts, and no other
  partition file) and reports its bound address back over a pipe.
  ``spawn`` (not fork) because the parent is threaded by the time a
  cluster starts, and because it forces the child to read from disk —
  the topology the paper's deployment actually has.  ``kill_shard`` is
  ``SIGKILL``, the honest crash.

Fault plans travel to spawned shards by *path* (``faults_path``): each
child installs the same plan file, so injected partition-load faults
fire shard-side with the shard's own deterministic draw sequence while
the router's ``shard/*`` sites fire router-side.
"""

from __future__ import annotations

import logging
import multiprocessing
import time

from ..core.builder import TardisIndex
from ..serving.server import TardisServer
from .assignment import ShardPlan, plan_shards
from .shard import ShardService, subset_index

__all__ = ["ShardCluster"]

logger = logging.getLogger(__name__)

_ADDRESS_WAIT_S = 120.0


def _shard_main(
    conn, index_dir: str, hosted, shard_id: int, host: str,
    faults_path: str | None, service_kwargs: dict | None,
    tracing: bool = False,
) -> None:
    """Entry point of a spawned shard process (module-level for spawn)."""
    if faults_path:
        from ..faults.injector import install_plan

        install_plan(faults_path)
    if tracing:
        # The child has its own tracer: without this, carrier-stamped
        # shard-knn calls would execute untraced and the router's
        # waterfall would show bare route/shard-call legs.
        from ..telemetry.spans import enable_tracing

        enable_tracing().set_root_limit(256)
    from ..core.persistence import load_index

    service = ShardService(
        load_index(index_dir, hosted),
        shard_id=shard_id,
        **(service_kwargs or {}),
    )
    server = TardisServer(service, host=host, port=0)
    server.start()
    conn.send(list(server.address))
    try:
        conn.recv()  # blocks until the parent says stop / closes the pipe
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    server.close(drain=True)


class _ThreadShard:
    """One in-process shard: service + server + liveness flag."""

    def __init__(self, shard_id: int, server: TardisServer):
        self.shard_id = shard_id
        self.server = server
        self.alive = True


class _ProcessShard:
    """One spawned shard: process handle + control pipe."""

    def __init__(self, shard_id: int, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ShardCluster:
    """Start, address, kill, and stop the shard servers of one plan."""

    def __init__(
        self,
        plan: ShardPlan,
        *,
        mode: str = "threads",
        index: TardisIndex | None = None,
        index_dir: str | None = None,
        host: str = "127.0.0.1",
        faults_path: str | None = None,
        service_kwargs: dict | None = None,
        tracing: bool = False,
    ):
        if mode not in ("threads", "processes"):
            raise ValueError(f"unknown cluster mode {mode!r}")
        if mode == "threads" and index is None:
            raise ValueError("threads mode needs a loaded index")
        if mode == "processes" and index_dir is None:
            raise ValueError("processes mode needs a persisted index_dir")
        self.plan = plan
        self.mode = mode
        self.index = index
        self.index_dir = None if index_dir is None else str(index_dir)
        self.host = host
        self.faults_path = None if faults_path is None else str(faults_path)
        self.service_kwargs = dict(service_kwargs or {})
        #: Enable tracing inside spawned shard processes (threads mode
        #: shares the parent's tracer, so the flag is a no-op there).
        self.tracing = bool(tracing)
        self._shards: list = []
        self._addresses: list[tuple[str, int]] = []
        self._started = False

    @classmethod
    def for_index(
        cls, index: TardisIndex, n_shards: int, replication: int = 0,
        **kwargs,
    ) -> "ShardCluster":
        """Plan by record count (FFD) and wrap the index in a cluster."""
        plan = plan_shards(
            {pid: p.n_records for pid, p in index.partitions.items()},
            n_shards, replication,
        )
        return cls(plan, index=index, **kwargs)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardCluster":
        if self._started:
            return self
        self._started = True
        if self.mode == "threads":
            self._start_threads()
        else:
            self._start_processes()
        logger.info(
            "cluster up: %d shards (R=%d, mode=%s) at %s",
            self.plan.n_shards, self.plan.replication, self.mode,
            self._addresses,
        )
        return self

    def _start_threads(self) -> None:
        for shard_id in range(self.plan.n_shards):
            service = ShardService(
                subset_index(self.index, self.plan.hosted(shard_id)),
                shard_id=shard_id,
                **self.service_kwargs,
            )
            server = TardisServer(service, host=self.host, port=0).start()
            self._shards.append(_ThreadShard(shard_id, server))
            self._addresses.append(server.address)

    def _start_processes(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        for shard_id in range(self.plan.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_main,
                args=(
                    child_conn, self.index_dir, self.plan.hosted(shard_id),
                    shard_id, self.host, self.faults_path,
                    self.service_kwargs, self.tracing,
                ),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._shards.append(_ProcessShard(shard_id, process, parent_conn))
        deadline = time.monotonic() + _ADDRESS_WAIT_S
        for shard in self._shards:
            remaining = max(0.1, deadline - time.monotonic())
            if not shard.conn.poll(remaining):
                self.stop()
                raise RuntimeError(
                    f"shard {shard.shard_id} did not report an address "
                    f"within {_ADDRESS_WAIT_S}s"
                )
            try:
                host, port = shard.conn.recv()
            except EOFError:
                self.stop()
                raise RuntimeError(
                    f"shard {shard.shard_id} died during startup "
                    f"(exitcode {shard.process.exitcode})"
                )
            self._addresses.append((host, port))

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """(host, port) per shard, indexed by shard id."""
        return list(self._addresses)

    def alive(self, shard_id: int) -> bool:
        return self._shards[shard_id].alive

    def kill_shard(self, shard_id: int) -> None:
        """Crash one shard ungracefully (failover drills).

        Threads mode tears the TCP socket down and fails queued work;
        processes mode sends ``SIGKILL``.  Either way the next router
        call to this shard sees a refused/reset connection, not an
        error reply.
        """
        shard = self._shards[shard_id]
        if not shard.alive:
            return
        if self.mode == "threads":
            shard.server.abort()
            shard.alive = False
        else:
            shard.process.kill()
            shard.process.join(5.0)
        logger.info("killed shard %d", shard_id)

    def stop(self) -> None:
        for shard in self._shards:
            if not shard.alive:
                continue
            if self.mode == "threads":
                shard.server.close(drain=True)
                shard.alive = False
            else:
                try:
                    shard.conn.send("stop")
                except (BrokenPipeError, OSError):
                    pass
                shard.process.join(10.0)
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(2.0)
                if shard.process.is_alive():  # pragma: no cover - stuck child
                    shard.process.kill()
                    shard.process.join(2.0)
        for shard in self._shards:
            if self.mode == "processes":
                try:
                    shard.conn.close()
                except OSError:
                    pass
        self._started = False

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
