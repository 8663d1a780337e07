"""Outside-in tracing of freenil's public functions.

The tracer wraps the functions listed in TARGETS from outside the library:
each wrapped call records a span (name, start, end, parent span, request id)
in compact in-memory arrays, and the spans are summarised when the run ends.
Nothing in ``freenil`` is edited; the wrappers are installed by rebinding
names, and removed again by ``Tracer.uninstall``.

Rebinding has to reach every alias.  ``from .ring import mul`` copies the
function object into ``freenil.lie``'s namespace, so the tracer replaces the
original object under every name in every loaded ``freenil`` module.  The
modules come from ``sys.modules`` because ``freenil.decompose`` as a package
attribute is the function, not the module.  Methods (``GeneratorMap.apply``
and the others, and ``Word.__init__``, where provenance words get reduced)
are patched on their classes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable

# module -> wrapped public names; "Class.method" names are patched on the
# class, and "Word" stands for Word.__init__, the word constructor
TARGETS: dict[str, tuple[str, ...]] = {
    "ring": ("mul", "inv", "comm", "power", "from_word", "truncate_class", "Word"),
    "lie": ("central_factorize", "lie_coordinates", "collect_word", "left_normed_element"),
    "intmat": ("det", "inverse_unimodular", "factor_unimodular"),
    "endo": (
        "GeneratorMap.apply",
        "GeneratorMap.is_automorphism",
        "GeneratorMap.preserves",
        "compose",
        "invert_with_rounds",
        "check_certificate",
        "lift_words",
        "project",
        "ia_central",
    ),
    "decompose": (
        "decompose",
        "abelian_decompose",
        "lift_factor",
        "central_decompose",
        "ordered_product",
        "verify_payload",
    ),
    "jsonio": (
        "loads",
        "dumps",
        "parse_map",
        "map_payload",
        "decomposition_payload",
        "parse_decomposition",
    ),
    "cli": ("main",),
}

MODULES = tuple(TARGETS)
SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in TARGETS.items() for name in names)
TAGS = ("elementary_abelian", "shear", "permutation", "sign", "lifted", "central_beta")


def _resolve(module, name: str) -> tuple[Any, str, Callable]:
    """(owner, attribute, original callable) for one TARGETS entry."""
    if name == "Word":
        return module.Word, "__init__", module.Word.__init__
    if "." in name:
        cls_name, meth = name.split(".")
        cls = getattr(module, cls_name)
        return cls, meth, cls.__dict__[meth]
    return module, name, getattr(module, name)


class OutputStats:
    """Counts read off decomposition outputs: factor tags, sizes, words."""

    def __init__(self) -> None:
        self.tags = dict.fromkeys(TAGS, 0)
        self.poly_terms_max = 0
        self.word_letters_max = 0

    def observe(self, dec) -> None:
        for f in dec.factors:
            self.tags[f.tag] = self.tags.get(f.tag, 0) + 1
            for img in f.map.images:
                self.poly_terms_max = max(self.poly_terms_max, len(img.poly))
                if img.word is not None:
                    self.word_letters_max = max(self.word_letters_max, len(img.word))

    def as_dict(self) -> dict:
        return {
            "tags": dict(self.tags),
            "poly_terms_max": self.poly_terms_max,
            "word_letters_max": self.word_letters_max,
        }


class Tracer:
    """Span recorder plus the counters that are read off wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.request = array("l")
        self.nested = array("b")  # 1 when a span of the same name is open above
        self.request_id = -1
        self.errors = dict.fromkeys(MODULES, 0)
        self.coords = 0
        self.rounds = 0
        self.det_calls = 0
        self.det_args: set[int] = set()
        self.outputs = OutputStats()
        self._stack: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every TARGETS entry and rebind all its aliases."""
        for mod_name in TARGETS:
            importlib.import_module(f"freenil.{mod_name}")
        loaded = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "freenil" or key.startswith("freenil."))
        ]
        for mod_name, names in TARGETS.items():
            module = sys.modules[f"freenil.{mod_name}"]
            for name in names:
                owner, attr, original = _resolve(module, name)
                wrapper = self._wrap(f"{mod_name}.{name}", mod_name, original)
                self._patch(owner, attr, wrapper)
                if owner is module:
                    for other in loaded:
                        for alias, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, alias, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, span_name: str, module: str, fn: Callable) -> Callable:
        ix = len(self.names)
        self.names.append(span_name)
        self._open.append(0)
        clock = time.perf_counter
        start, end, parent, name = self.start, self.end, self.parent, self.name
        request, nested, stack, open_ = self.request, self.nested, self._stack, self._open
        errors = self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            name.append(ix)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            nested.append(1 if open_[ix] else 0)
            end.append(0.0)
            stack.append(span)
            open_[ix] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end[span] = clock()
                stack.pop()
                open_[ix] -= 1
            if hook is not None and not open_[ix]:
                hook(args, result)
            return result

        # hooks see the outermost call of their name only
        hook = {
            "lie.lie_coordinates": self._count_coords,
            "endo.invert_with_rounds": self._count_rounds,
            "intmat.det": self._count_det,
            "decompose.decompose": self._observe_decomposition,
        }.get(span_name)
        return wrapper

    def _count_coords(self, args, result) -> None:
        self.coords += len(result)

    def _count_rounds(self, args, result) -> None:
        self.rounds += result[1]

    def _count_det(self, args, result) -> None:
        self.det_calls += 1
        self.det_args.add(hash(args[0]))

    def _observe_decomposition(self, args, result) -> None:
        self.outputs.observe(result)

    # -- summary ---------------------------------------------------------

    def _self_times(self) -> array:
        """Each span's duration minus the durations of its direct children.

        One thread runs, so the children of a span never overlap."""
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (e - s for s, e in zip(start, end)))
        for span in range(len(start)):
            p = parent[span]
            if p >= 0:
                own[p] -= end[span] - start[span]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and outermost inclusive seconds.

        A recursive name's inclusive time counts only its outermost spans."""
        own = self._self_times()
        out = {n: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0} for n in self.names}
        for span in range(len(own)):
            row = out[self.names[self.name[span]]]
            row["calls"] += 1
            row["self_s"] += own[span]
            if not self.nested[span]:
                row["inclusive_s"] += self.end[span] - self.start[span]
        return out

    def per_request(self) -> dict[int, dict[str, dict]]:
        """Per request id and span name: calls and self seconds."""
        own = self._self_times()
        out: dict[int, dict[str, dict]] = {}
        for span in range(len(own)):
            row = out.setdefault(self.request[span], {}).setdefault(
                self.names[self.name[span]], {"calls": 0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += own[span]
        return out

    def counters(self) -> dict[str, float]:
        return {
            "coords": self.coords,
            "rounds": self.rounds,
            "det_calls": self.det_calls,
            "det_distinct": len(self.det_args),
            **{f"errors.{m}": v for m, v in self.errors.items()},
        }


# ---------------------------------------------------------------------------
# profiles: what one traced process reports, mergeable across processes

CLI_STAGES = ("random-aut", "decompose", "verify")


def profile(tracer: Tracer) -> dict:
    return {
        "spans": tracer.summary(),
        "counters": tracer.counters(),
        "outputs": tracer.outputs.as_dict(),
    }


def merge_profiles(a: dict, b: dict) -> dict:
    """Add two profiles key by key; `*_max` entries take the larger value.
    Neither input is changed, and {} is the empty profile."""
    out = dict(a)
    for key, value in b.items():
        if key not in out:
            out[key] = value
        elif isinstance(value, dict):
            out[key] = merge_profiles(out[key], value)
        elif key.endswith("_max"):
            out[key] = max(out[key], value)
        else:
            out[key] = out[key] + value
    return out


def layer_metrics(
    prof: dict,
    maps: int,
    overhead_ratio: float,
    cli_main_by_stage: dict[str, float] | None = None,
    cli_process_s: float = 0.0,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, in BENCHMARK.json order: name -> (value, unit).

    Calls and self times are means per map (per pipeline on cli-cold), so
    runs that complete different numbers of maps stay comparable.
    """
    per = 1.0 / max(maps, 1)
    spans, counters = prof.get("spans", {}), prof.get("counters", {})
    outputs = prof.get("outputs", {})
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        row = spans.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] * per, "count/map")
        out[f"{name}.self_s"] = (row["self_s"] * per, "s/map")
    by_stage = cli_main_by_stage or {}
    for stage in CLI_STAGES:
        out[f"cli.main.self_s.{stage}"] = (by_stage.get(stage, 0.0) * per, "s/map")
    out["cli.process_s"] = (cli_process_s * per, "s/map")
    out["ring.poly_terms.max"] = (outputs.get("poly_terms_max", 0), "count")
    out["ring.word_letters.max"] = (outputs.get("word_letters_max", 0), "count")
    out["lie.lie_coordinates.coords"] = (counters.get("coords", 0) * per, "count/map")
    det_calls = counters.get("det_calls", 0)
    out["intmat.det.distinct_ratio"] = (
        counters.get("det_distinct", 0) / det_calls if det_calls else 0.0,
        "ratio",
    )
    out["endo.invert_with_rounds.rounds"] = (counters.get("rounds", 0) * per, "count/map")
    for tag in TAGS:
        out[f"decompose.factors.{tag}"] = (
            outputs.get("tags", {}).get(tag, 0) * per, "count/map"
        )
    for module in MODULES:
        out[f"{module}.errors"] = (counters.get(f"errors.{module}", 0), "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
