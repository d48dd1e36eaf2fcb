"""Per-layer tracing of twistlines from outside the package.

The tracer replaces public functions with wrappers at every name the
package binds them to, so a call is caught wherever its caller looks the
function up: module-level names (``verify`` binds ``kernel_free`` at import,
``sheaves`` reaches ``linalg.solve`` through the module) and class
attributes (``GradedMatrix.degree_piece`` and friends).  Nothing under
``src/`` is edited, and ``uninstall`` puts every original back.

Spans (id, name, start, end, parent id, item id) are kept in memory in
typed arrays and written out when the run ends.  Hot scalar and form
operations are counted, not spanned, so the span table stays small.
"""

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) of the function it wraps
SPANNED = {
    "families.build": [
        ("twistlines.families", "build_classical"),
        ("twistlines.families", "build_isotropic"),
        ("twistlines.families", "build_phi_psi"),
    ],
    "verify.certify": [("twistlines.verify", "certify")],
    "verify.verify_claim_ses": [("twistlines.verify", "verify_claim_ses")],
    "verify.run_sweep": [("twistlines.verify", "run_sweep")],
    "cli.main": [("twistlines.cli", "main")],
    "sheaves.kernel_free": [("twistlines.sheaves", "kernel_free")],
    "sheaves.lift_through": [("twistlines.sheaves", "lift_through")],
    "sheaves.quotient_type": [("twistlines.sheaves", "quotient_type")],
    "sheaves.cokernel_type": [("twistlines.sheaves", "cokernel_type")],
    "sheaves.perp": [("twistlines.sheaves", "perp")],
    "sheaves.is_isotropic": [("twistlines.sheaves", "is_isotropic")],
    "linalg.rank": [("twistlines.linalg", "rank")],
    "linalg.nullspace": [("twistlines.linalg", "nullspace")],
    "linalg.solve": [("twistlines.linalg", "solve")],
    "frames.degree_piece": [("twistlines.frames", "GradedMatrix.degree_piece")],
    "frames.rank_everywhere": [("twistlines.frames", "GradedMatrix.rank_everywhere")],
    "frames.matmul": [("twistlines.frames", "GradedMatrix.__matmul__")],
    "forms.poly_divmod": [("twistlines.forms", "poly_divmod")],
}

FIELD_OPS = ("add", "sub", "mul", "div", "inv", "neg", "of")

# counter name -> functions whose calls it counts
COUNTED = {
    "fields.ops": [
        ("twistlines.fields", f"{cls}.{op}")
        for cls in ("RationalField", "PrimeField")
        for op in FIELD_OPS
    ],
    "forms.mul.calls": [("twistlines.forms", "BinaryForm.__mul__")],
    "forms.add.calls": [("twistlines.forms", "BinaryForm.__add__")],
}

LINALG = ("linalg.rank", "linalg.nullspace", "linalg.solve")
SMALL_ENTRIES = 1000
# the self time of cli.main is everything the parent does besides run_sweep
SELF_NAME = {"cli.main": "cli.self_s"}


def _matrix_entries(args, kwargs):
    """rows x columns of the matrix handed to a linalg routine."""
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(rows) * ncols


class Tracer:
    """Span recorder plus counters; one per traced pass."""

    def __init__(self):
        self.names = list(SPANNED)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("q")
        self.sp_item = array("q")
        self.item = -1
        self.stack = []  # frames: [span id, name, child seconds]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._hooks = self._after_hooks()
        self._saved = []  # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        name_id = self._name_id[name]
        stack = self.stack
        depth = self.depth
        calls = self.calls
        incl = self.incl
        self_s = self.self_s
        after = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            sid = len(self.sp_start)
            parent = stack[-1] if stack else None
            self.sp_name.append(name_id)
            self.sp_parent.append(parent[0] if parent else -1)
            self.sp_item.append(self.item)
            self.sp_end.append(0.0)
            frame = [sid, name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            self.sp_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.sp_end[sid] = end
                stack.pop()
                depth[name] -= 1
                dur = end - start
                calls[name] += 1
                if not depth[name]:  # a recursive call is inside its caller's time
                    incl[name] += dur
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(args, kwargs, result, parent[1] if parent else None)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hooks(self):
        counts = self.counts

        def linalg_hook(name):
            def hook(args, kwargs, result, parent):
                entries = _matrix_entries(args, kwargs)
                counts[f"{name}.entries"] += entries
                if entries < SMALL_ENTRIES:
                    counts["linalg.small_calls"] += 1

            return hook

        def degree_piece(args, kwargs, result, parent):
            if parent == "sheaves.kernel_free":
                counts["sheaves.kernel_free.degrees"] += 1

        def kernel_free(args, kwargs, result, parent):
            counts["sheaves.kernel_free.generators"] += result.rank

        def lift_through(args, kwargs, result, parent):
            if result is None:
                counts["sheaves.lift_through.misses"] += 1

        hooks = {name: linalg_hook(name) for name in LINALG}
        hooks["frames.degree_piece"] = degree_piece
        hooks["sheaves.kernel_free"] = kernel_free
        hooks["sheaves.lift_through"] = lift_through
        return hooks

    def _subbundle_init(self, fn):
        counts = self.counts

        def __init__(obj, gen, check=True):
            if check and gen.ncols:
                counts["sheaves.subbundle_checks"] += 1
            fn(obj, gen, check)

        return __init__

    # -- installation ----------------------------------------------------

    def _replace(self, module_name, attr, make):
        """Swap in a wrapper at every binding of the original function."""
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._saved.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twistlines" or mod_name.startswith("twistlines.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        import twistlines.cli  # noqa: F401  (cli is not imported by the package)

        for name, targets in SPANNED.items():
            for module_name, attr in targets:
                self._replace(module_name, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for key, targets in COUNTED.items():
            for module_name, attr in targets:
                self._replace(module_name, attr, lambda fn, k=key: self._count_wrapper(k, fn))
        self._replace("twistlines.sheaves", "Subbundle.__init__", self._subbundle_init)
        # pool workers forked while tracing would record into a copy that is
        # lost; give them the original functions instead
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer values, keyed by metric name."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl[name]
            out[SELF_NAME.get(name, f"{name}.self_s")] = self.self_s[name]
        for key in (
            "fields.ops",
            "forms.mul.calls",
            "forms.add.calls",
            "sheaves.kernel_free.degrees",
            "sheaves.kernel_free.generators",
            "sheaves.lift_through.misses",
            "sheaves.subbundle_checks",
        ):
            out[key] = self.counts[key]
        for name in LINALG:
            out[f"{name}.entries"] = self.counts[f"{name}.entries"]
        linalg_calls = sum(self.calls[n] for n in LINALG)
        out["linalg.small_share"] = (
            self.counts["linalg.small_calls"] / linalg_calls if linalg_calls else 0.0
        )
        gens = self.counts["sheaves.kernel_free.generators"]
        out["sheaves.kernel_free.degrees_per_generator"] = (
            self.counts["sheaves.kernel_free.degrees"] / gens if gens else 0.0
        )
        out["trace.spans"] = len(self.sp_start)
        return out

    def write_spans(self, fh):
        """Tab-separated spans, one per line, times relative to the first."""
        t0 = self.sp_start[0] if self.sp_start else 0.0
        fh.write("id\tname\tstart_s\tend_s\tparent\titem\n")
        names = self.names
        for sid in range(len(self.sp_start)):
            fh.write(
                f"{sid}\t{names[self.sp_name[sid]]}\t{self.sp_start[sid] - t0:.7f}\t"
                f"{self.sp_end[sid] - t0:.7f}\t{self.sp_parent[sid]}\t{self.sp_item[sid]}\n"
            )
