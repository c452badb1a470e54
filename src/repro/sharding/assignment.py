"""Partition→shard assignment: contiguous id runs + chained replicas.

A :class:`ShardPlan` says, for every partition, which shard *owns* it
(serves it as a primary) and which shards hold replica copies.  The
planner cuts the partition-id order into one contiguous run per shard,
with near-equal record totals.  Tardis-G numbers partitions one parent
at a time, so a run of ids is a run of siblings, and multi-partitions
access reads the routed node's siblings: most such queries then touch
one shard, which the router answers in a single call.  The price is
that load follows locality: a hot signature range lands on one shard,
and partitions a rebalance splits off get fresh ids at the end of the
order, so a plan puts them in the last shard's run, away from the
siblings they split from.

Replicas are placed by *chaining*: shard ``s``'s primaries are copied
onto shards ``s+1 … s+R (mod N)``.  Chaining keeps every partition's
host list disjoint in failure domains (losing one shard removes exactly
one host from each affected partition) and makes the host list of a
partition a pure function of the plan — the router recomputes it
without any extra state.

Plans serialize to plain JSON (:meth:`ShardPlan.to_dict`) so a spawned
shard process and the router agree on the topology byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ShardPlan", "plan_shards"]


@dataclass(frozen=True)
class ShardPlan:
    """Immutable shard topology: who owns what, who replicates what."""

    n_shards: int
    replication: int
    #: ``shards[s]`` = sorted tuple of partition ids shard ``s`` owns.
    shards: tuple

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if len(self.shards) != self.n_shards:
            raise ValueError(
                f"plan lists {len(self.shards)} shards, expected "
                f"{self.n_shards}"
            )
        if not 0 <= self.replication <= self.n_shards - 1:
            raise ValueError(
                "replication must be within [0, n_shards - 1] "
                f"(got R={self.replication} for N={self.n_shards})"
            )
        seen: set[int] = set()
        for owned in self.shards:
            for pid in owned:
                if pid in seen:
                    raise ValueError(f"partition {pid} owned by two shards")
                seen.add(pid)

    # -- placement queries --------------------------------------------------

    def owner_of(self, partition_id: int) -> int:
        """The shard that owns ``partition_id`` as a primary."""
        for shard_id, owned in enumerate(self.shards):
            if partition_id in owned:
                return shard_id
        raise KeyError(f"partition {partition_id} is not in the plan")

    def hosts_of(self, partition_id: int) -> list[int]:
        """Every shard holding ``partition_id``, owner first.

        The chained replicas follow the owner in ring order, so the
        list doubles as the router's replica preference order.
        """
        owner = self.owner_of(partition_id)
        return [
            (owner + i) % self.n_shards for i in range(self.replication + 1)
        ]

    def replica_sources(self, shard_id: int) -> list[int]:
        """Shards whose primaries ``shard_id`` holds replica copies of."""
        return [
            (shard_id - i) % self.n_shards
            for i in range(1, self.replication + 1)
        ]

    def hosted(self, shard_id: int) -> list[int]:
        """All partition ids shard ``shard_id`` must load (primaries +
        replicas), sorted."""
        pids = set(self.shards[shard_id])
        for source in self.replica_sources(shard_id):
            pids.update(self.shards[source])
        return sorted(pids)

    @property
    def all_partitions(self) -> list[int]:
        return sorted(pid for owned in self.shards for pid in owned)

    # -- wire form ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "replication": self.replication,
            "shards": [list(owned) for owned in self.shards],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ShardPlan":
        return cls(
            n_shards=int(doc["n_shards"]),
            replication=int(doc["replication"]),
            shards=tuple(
                tuple(int(pid) for pid in owned) for owned in doc["shards"]
            ),
        )


def plan_shards(
    sizes: dict, n_shards: int, replication: int = 0
) -> ShardPlan:
    """Split the partition-id order into ``n_shards`` contiguous runs of
    near-equal record totals.

    ``sizes`` maps partition id → record count.  Partition ids are
    numbered one Tardis-G parent at a time, so adjacent ids are siblings
    and one multi-partitions query's sibling list lands on one shard.
    Each partition goes to the shard whose equal share of the record
    total holds the partition's record midpoint; no shard exceeds
    ``ceil(total / n_shards)`` by more than one partition.  A shard may
    own nothing when there are fewer partitions than shards.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if not 0 <= replication <= n_shards - 1:
        raise ValueError(
            "replication must be within [0, n_shards - 1] "
            f"(got R={replication} for N={n_shards})"
        )
    items = sorted((int(pid), int(size)) for pid, size in sizes.items())
    total = sum(size for _pid, size in items)
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    done = 0
    for i, (pid, size) in enumerate(items):
        # floor(n * midpoint / total), doubled to stay in integers; the
        # position stands in for records when every partition is empty.
        mid, span = (
            (2 * done + size, 2 * total) if total
            else (2 * i + 1, 2 * len(items))
        )
        shards[min(n_shards - 1, n_shards * mid // span)].append(pid)
        done += size
    return ShardPlan(
        n_shards=n_shards, replication=replication,
        shards=tuple(tuple(owned) for owned in shards),
    )
