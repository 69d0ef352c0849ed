"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of each frey2 layer and re-binds
every name under which a frey2 module imported them (for example
`hyper_discriminant` lives in curves and is imported into pipelines,
families and cli), so calls made inside the program are seen too.  Spans
(name, parent, start, end, tag) are kept in memory; `summary` turns them
into per-layer counts and times, and `dump` writes them out.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a dotted attribute is a method.
TARGETS = [
    ("frey2.algebra", "bareiss_det", "algebra.bareiss"),
    ("frey2.localfield", "TameField.inv", "localfield.tame_inv"),
    ("frey2.curves", "apply_change", "curves.apply_change"),
    ("frey2.curves", "hyper_discriminant", "curves.hyper_discriminant"),
    ("frey2.families", "verify_identities", "families.identities"),
    ("frey2.families", "verify_closed_form_disc", "families.closed_form_disc"),
    ("frey2.gf2", "roots_in_gf2k", "gf2.roots"),
    ("frey2.gf2", "irreducible_factor_degrees", "gf2.factor_degrees"),
    ("frey2.fibers", "splitting_field", "fibers.splitting_field"),
    ("frey2.fibers", "singular_points", "fibers.singular_points"),
    ("frey2.pipelines", "pipeline_ppr_even", "pipelines.ppr_even"),
    ("frey2.pipelines", "pipeline_35p", "pipelines.35p"),
    ("frey2.pipelines", "pipeline_odd_good_reduction", "pipelines.odd_good"),
    ("frey2.classify", "classify", "classify.classify"),
    ("frey2.classify", "cross_validate", "classify.cross_validate"),
    ("frey2.serialize", "dumps", "serialize.dumps"),
]
SPANS = [name for _, _, name in TARGETS]
BAREISS_DOMAINS = ("tame", "laurent", "qq_poly", "qq")
# The pipelines that do not depend on t; repeated arguments are wasted work.
T_INDEPENDENT = ("pipelines.ppr_even", "pipelines.35p")


def _bareiss_tag(rows, dom):
    kind = type(dom).__name__
    domain = {"TameField": "tame", "LaurentRing": "laurent", "PolyRing": "qq_poly",
              "RationalField": "qq"}.get(kind, kind)
    return domain, len(rows)


def _arguments_tag(*args, **kwargs):
    return args, tuple(sorted(kwargs.items()))


TAGGERS = {
    "algebra.bareiss": _bareiss_tag,
    "gf2.roots": lambda H, field: field.k,
    "pipelines.ppr_even": _arguments_tag,
    "pipelines.35p": _arguments_tag,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, tag]
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tagger = TAGGERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   tagger(*args, **kwargs) if tagger else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def install(self):
        owners = [importlib.import_module(modname) for modname, _, _ in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "frey2" or n.startswith("frey2."))]
        for owner, (_, attr, name) in zip(owners, TARGETS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(name, orig)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self):
        """Per-layer metrics: .calls, .s (inclusive), .self_s (minus child spans)."""
        child = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = 0
            out[f"{span}.s"] = 0.0
            out[f"{span}.self_s"] = 0.0
        for d in BAREISS_DOMAINS:
            out[f"algebra.bareiss.{d}.calls"] = 0
            out[f"algebra.bareiss.{d}.s"] = 0.0
        out["algebra.bareiss.max_order"] = 0
        out["gf2.roots.k16.calls"] = 0
        out["gf2.roots.k16.s"] = 0.0
        distinct = set()
        for i, (name, _, start, end, tag) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            if name == "algebra.bareiss":
                domain, order = tag
                if domain in BAREISS_DOMAINS:
                    out[f"algebra.bareiss.{domain}.calls"] += 1
                    out[f"algebra.bareiss.{domain}.s"] += dur
                out["algebra.bareiss.max_order"] = max(out["algebra.bareiss.max_order"], order)
            elif name == "gf2.roots" and tag == 16:
                out["gf2.roots.k16.calls"] += 1
                out["gf2.roots.k16.s"] += dur
            elif name in T_INDEPENDENT:
                distinct.add((name, tag))
        calls = sum(out[f"{n}.calls"] for n in T_INDEPENDENT)
        out["pipelines.distinct_per_call"] = len(distinct) / calls if calls else 1.0
        return out

    def dump(self, path):
        """Write every span as [name, parent, start, end] to a JSON file."""
        with open(path, "w") as fh:
            json.dump([s[:4] for s in self.spans], fh, separators=(",", ":"))
