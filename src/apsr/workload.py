"""Datasets, request traces, per-slot arrival counts, and host-fleet sizing.

Three request mixes ship with the package (nfv, google, amazon) in a plain-text
table format that also accepts user-supplied files:

    # comment lines and blank lines are ignored
    resources <name> ...          resource coordinate names (fixes the dimension)
    host <v> ... <weight>         a host capacity vector plus its proportion weight
    class <name> <count>          per-replica draws for a flavor class (optional)
    flavor <v> ... <count> [cls]  a demand vector with its per-replica count;
                                  class-sampled flavors carry count 0 and a class

Count-based flavors appear exactly count * replicas times per trace; class-based
flavors are drawn uniformly within their class, count-per-class times per
replica.  The final trace order is a uniform shuffle under the seed.

Host and flavor values are read as exact decimals.  With p the most decimal
places of any of them (at most 9), they are stored as integers in units of
10^-p, so all resource arithmetic downstream is exact.  Every host capacity
coordinate must be positive, since a host's load divides by it.

A slot's arrivals are one Poisson draw at a set rate, made when the slot reads
them; under "mmpp" the rate drops to ``MMPP_RATE_LOW`` once ``MMPP_SWITCH`` of
the trace has arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import MAX_UNITS, ConfigError, Flavor, Request, fits
from .policies import HostView, PolicyConfig, choose

DATASET_NAMES = ("nfv", "google", "amazon")

#: Fleet sizes used by the large-cloud experiments (dataset -> host count).
DEFAULT_FLEETS = {"nfv": 837, "amazon": 876, "google": 5989}

#: Most decimal places a table value may have; 10^-9 units keep realistic
#: capacities far inside int64.
MAX_DECIMALS = 9

#: Highest arrival or departure rate per slot: numpy's Poisson sampler refuses
#: rates past int64's maximum less ten standard deviations (about 9.22e18).
MAX_RATE = 9.2e18
ARRIVAL_KINDS = ("poisson", "mmpp")
#: The mmpp process's rate once ``MMPP_SWITCH`` of the trace has arrived.
MMPP_RATE_LOW = 5.0
MMPP_SWITCH = 0.2


@dataclass(frozen=True)
class DatasetSpec:
    """A parsed dataset table: flavors, their counts or classes, host shapes.

    Host shapes and flavor demands are integers in units of 10^-decimals of
    the table's values; flavor ids are the table's own tokens.
    """

    name: str
    resources: tuple[str, ...]
    flavors: tuple[Flavor, ...]
    flavor_counts: dict[str, int]  # per replica; 0 for class-sampled flavors
    class_counts: dict[str, int]  # per-replica draws per class
    flavor_classes: dict[str, str]  # flavor id -> class name
    host_shapes: tuple[tuple[tuple[int, ...], int], ...]  # (capacity, weight)
    decimals: int  # table value = stored integer * 10^-decimals

    @property
    def requests_per_replica(self) -> int:
        return sum(self.flavor_counts.values()) + sum(self.class_counts.values())

    def class_members(self, class_name: str) -> list[Flavor]:
        return [f for f in self.flavors if self.flavor_classes.get(f.id) == class_name]


def parse_dataset(text: str, name: str) -> DatasetSpec:
    """Parse the table format described in the module docstring."""
    resource_names: tuple[str, ...] | None = None
    demands: dict[str, tuple[Decimal, ...]] = {}  # flavor id -> demand, table order
    flavor_counts: dict[str, int] = {}
    class_counts: dict[str, int] = {}
    flavor_classes: dict[str, str] = {}
    host_shapes: list[tuple[tuple[Decimal, ...], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        try:
            if keyword == "resources":
                resource_names = tuple(args)
            elif keyword == "host":
                if resource_names is None:
                    raise ConfigError("'resources' line must come first")
                if len(args) != len(resource_names) + 1:
                    raise ConfigError("host line: capacity coordinates plus one weight")
                weight = int(args[-1])
                if weight < 1:
                    raise ConfigError(f"host weight must be >= 1, got {weight}")
                capacity = _amounts(args[:-1])
                if not all(capacity):
                    raise ConfigError(f"host capacity coordinates must be positive, got {raw!r}")
                host_shapes.append((capacity, weight))
            elif keyword == "class":
                count = int(args[1])
                if count < 0:
                    raise ConfigError(f"class counts must be >= 0, got {count}")
                class_counts[args[0]] = count
            elif keyword == "flavor":
                if resource_names is None:
                    raise ConfigError("'resources' line must come first")
                dim = len(resource_names)
                demand = _amounts(args[:dim])
                rest = args[dim:]
                if len(rest) not in (1, 2):
                    raise ConfigError("flavor line: demand, count, optional class")
                if not any(demand):
                    raise ConfigError("flavor demand is all zero")
                count = int(rest[0])
                if count < 0:
                    raise ConfigError("flavor counts must be >= 0")
                flavor_id = "x".join(args[:dim])
                if flavor_id in demands:
                    raise ConfigError(f"duplicate flavor {flavor_id}")
                demands[flavor_id] = demand
                flavor_counts[flavor_id] = count
                if len(rest) == 2:
                    if rest[1] not in class_counts:
                        raise ConfigError(f"flavor references undeclared class {rest[1]!r}")
                    if count:
                        raise ConfigError(f"class-sampled flavors carry count 0, got {count}")
                    flavor_classes[flavor_id] = rest[1]
            else:
                raise ConfigError(f"unknown keyword {keyword!r}")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{name}:{lineno}: malformed line {raw!r}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{name}:{lineno}: {exc}") from None

    if resource_names is None or not demands or not host_shapes:
        raise ConfigError(f"{name}: dataset needs resources, host shapes, and flavors")
    for class_name in class_counts:
        if not any(c == class_name for c in flavor_classes.values()):
            raise ConfigError(f"{name}: class {class_name!r} has no flavors")
    values = [v for shape, _ in host_shapes for v in shape]
    values += [v for demand in demands.values() for v in demand]
    decimals = max(max(0, -v.as_tuple().exponent) for v in values)
    if decimals > MAX_DECIMALS:
        raise ConfigError(
            f"{name}: a value has {decimals} decimal places; at most {MAX_DECIMALS} are supported"
        )
    for v in values:
        # the first test keeps scaleb within the decimal context's precision
        if v > MAX_UNITS or v.scaleb(decimals) > MAX_UNITS:
            raise ConfigError(f"{name}: {v} does not fit in int64 in units of 10^-{decimals}")

    def scaled(vec: tuple[Decimal, ...]) -> tuple[int, ...]:
        return tuple(int(v.scaleb(decimals)) for v in vec)

    return DatasetSpec(
        name=name,
        resources=resource_names,
        flavors=tuple(Flavor(fid, scaled(d)) for fid, d in demands.items()),
        flavor_counts=flavor_counts,
        class_counts=class_counts,
        flavor_classes=flavor_classes,
        host_shapes=tuple((scaled(c), w) for c, w in host_shapes),
        decimals=decimals,
    )


def _amounts(tokens: list[str]) -> tuple[Decimal, ...]:
    """Resource values of a table line as exact, finite, non-negative decimals."""
    try:
        values = tuple(Decimal(t) for t in tokens)
    except InvalidOperation:
        raise ConfigError(f"resource values must be numbers, got {tokens}") from None
    if not values or not all(v.is_finite() and v >= 0 for v in values):
        raise ConfigError(f"resource values must be finite and non-negative, got {tokens}")
    return values


def load_dataset(name_or_path: str) -> DatasetSpec:
    """Load an embedded dataset by name, or a user table from a file path."""
    if name_or_path in DATASET_NAMES:
        text = resources.files("apsr.data").joinpath(f"{name_or_path}.txt").read_text()
        return parse_dataset(text, name_or_path)
    path = Path(name_or_path)
    if path.is_file():
        return parse_dataset(path.read_text(), path.stem)
    raise ConfigError(
        f"unknown dataset {name_or_path!r}: not one of {DATASET_NAMES} and not a file"
    )


def fleet_size(dataset: str, hosts: int | None) -> int:
    """The configured host count, or when None the default fleet of a bundled
    dataset named by ``dataset`` (a user table has none, whatever its file name)."""
    hosts = hosts or DEFAULT_FLEETS.get(dataset)
    if hosts is None:
        raise ConfigError(f"dataset {dataset!r} has no default fleet; set hosts explicitly")
    return hosts


def fleet_capacities(spec: DatasetSpec, hosts: int) -> list[tuple[int, ...]]:
    """Deterministic host shapes for a fleet: round-robin over weighted shapes."""
    if hosts < 1:
        raise ConfigError(f"need at least one host, got {hosts}")
    cycle: list[tuple[int, ...]] = []
    for capacity, weight in spec.host_shapes:
        cycle.extend([capacity] * weight)
    return [cycle[i % len(cycle)] for i in range(hosts)]


def build_trace(spec: DatasetSpec, replicas: int, seed) -> list[Request]:
    """Replicate the dataset's request mix and shuffle it into one trace."""
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    rng = np.random.default_rng(seed)
    by_id = {f.id: f for f in spec.flavors}
    items: list[Flavor] = []
    for flavor in spec.flavors:
        items.extend([flavor] * (spec.flavor_counts[flavor.id] * replicas))
    for class_name, count in spec.class_counts.items():
        members = spec.class_members(class_name)
        for _ in range(replicas):
            picks = rng.integers(0, len(members), size=count)
            items.extend(members[i] for i in picks)
    order = rng.permutation(len(items))
    return [Request(i, items[j]) for i, j in enumerate(order)]


def arrivals(kind: str, rate: float, trace_length: int, seed) -> Iterator[int]:
    """Yield one slot's arrival count per ``next()`` until the whole trace has
    arrived (the last count truncated): Poisson at ``rate``, or under "mmpp" at
    ``MMPP_RATE_LOW`` once ``MMPP_SWITCH`` of the trace has arrived."""
    if kind not in ARRIVAL_KINDS:
        raise ConfigError(f"unknown arrival process {kind!r}")
    if not 0 < rate <= MAX_RATE:
        raise ConfigError(f"arrival rate must be in (0, {MAX_RATE:g}], got {rate}")
    rng = np.random.default_rng(seed)
    arrived = 0
    while arrived < trace_length:
        switched = kind == "mmpp" and arrived >= MMPP_SWITCH * trace_length
        count = min(int(rng.poisson(MMPP_RATE_LOW if switched else rate)), trace_length - arrived)
        arrived += count
        yield count


@dataclass
class SizingRun:
    run: int
    policy: str
    hosts: int


@dataclass
class SizingResult:
    hosts: int  # the minimum over all runs and policies
    runs: list[SizingRun] = field(default_factory=list)


def size_hosts(
    spec: DatasetSpec,
    replicas: int,
    policy_set: tuple[str, ...] = ("ff", "wf", "random"),
    runs: int = 10,
    seed=0,
) -> SizingResult:
    """Approximate the smallest fleet that can take a whole trace at once.

    Each run shuffles the trace and places it sequentially with a single
    scheduler, opening a fresh host (shapes round-robin per the dataset
    proportions) whenever a request fits no open host.  The answer is the
    minimum open-host count over all runs and policies.  A flavor that fits
    no host shape is a ConfigError.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if not policy_set:
        raise ConfigError("size_hosts needs at least one policy")
    for flavor in spec.flavors:
        if not any(fits(flavor.demand, capacity) for capacity, _ in spec.host_shapes):
            raise ConfigError(f"{spec.name}: flavor {flavor.id} fits no host shape")
    result = SizingResult(hosts=0)
    best: int | None = None
    for run in range(runs):
        trace = build_trace(spec, replicas, (_as_seed(seed), 1, run))
        for policy_name in policy_set:
            policy = PolicyConfig(policy_name)
            rng = np.random.default_rng((_as_seed(seed), 2, run, _policy_tag(policy_name)))
            opened = _size_one_run(spec, trace, policy, rng)
            result.runs.append(SizingRun(run, policy_name, opened))
            if best is None or opened < best:
                best = opened
    result.hosts = int(best)
    return result


def _as_seed(seed) -> int:
    if isinstance(seed, (tuple, list)):
        raise ConfigError("size_hosts expects a plain integer seed")
    return int(seed)


def _policy_tag(name: str) -> int:
    return int.from_bytes(name.encode(), "big") % (2**31)


def _size_one_run(
    spec: DatasetSpec, trace: list[Request], policy: PolicyConfig, rng
) -> int:
    cycle = sum(weight for _, weight in spec.host_shapes)
    capacity = np.array(fleet_capacities(spec, len(trace) + cycle), dtype=np.int64)
    available = capacity.copy()  # rows past ``opened`` are hosts not yet opened
    opened = 0

    for request in trace:
        target = None
        if opened:
            view = HostView(
                ids=np.arange(opened),
                available=available[:opened],
                capacity=capacity[:opened],
            )
            target = choose(policy, view, request, rng)
        while target is None:
            opened += 1
            if fits(request.flavor.demand, capacity[opened - 1]):
                target = opened - 1
        available[target] -= request.flavor.demand
    return opened
