"""Output checks, independent of the program's own `assert`s (which
`python -O` strips).

Each op ends in one outcome: ok, cap (a SizeCapExceeded exit, with the
message that names the cap), class_violation, or invalid.  Cap exits and
class violations are documented exits of the program and count as failed
ops; an invalid output or a wrong answer is a wrong result and fails the
run.

The references are bound here at import, before the tracer wraps the
program's names, so checking an output never shows up in a trace.
"""

import io
import re

from logtw.builder import ClassViolation, width_bound
from logtw.formats import read_td
from logtw.graph import SizeCapExceeded
from logtw.oracle import (CHROMATIC_CAP, SOLVER_CAP, brute_chromatic,
                          brute_dominating_set, brute_stable_set,
                          brute_vertex_cover)
from logtw.treedec import validate

OUTCOMES = ("ok", "cap", "class_violation", "invalid")
CAP_MESSAGE = re.compile(r"capped at n <= \d+|budget of \d+ holes")


class WrongOutput(Exception):
    """The program returned a wrong answer or an invalid decomposition."""


def run_op(op, item):
    """(outcome, result-or-message).  Exceptions other than the two
    documented exits mean the program failed to produce a valid output."""
    try:
        return "ok", op(item)
    except SizeCapExceeded as e:
        return "cap", str(e)
    except ClassViolation as e:
        return "class_violation", str(e)
    except Exception as e:  # noqa: BLE001 - any crash is an invalid output
        return "invalid", f"{type(e).__name__}: {e}"


def _require(cond, item, what):
    if not cond:
        raise WrongOutput(f"{item.name}: {what}")


def _check_td(item, g, td):
    bad = validate(g, td)
    _require(bad is None, item, f"invalid decomposition: {bad}")


def _same_td(a, b):
    return a.bags == b.bags and sorted(a.edges) == sorted(b.edges)


def _check_build(item, g, td, report):
    _check_td(item, g, td)
    _require(report.achieved_width == td.width, item,
             f"report width {report.achieved_width} != {td.width}")
    bound = width_bound(report.t, max(g.n, 1), report.delta_used,
                        report.hdim_used)
    _require(report.bound == bound, item,
             f"report bound {report.bound} != {bound}")
    if report.certified:
        _require(td.width <= bound, item,
                 f"certified width {td.width} exceeds bound {bound}")


def _check_stable(item, g, alpha):
    value, wit = alpha
    _require(len(wit) == value and g.is_stable(wit), item,
             f"stable set witness does not give {value}")


def _check_oracles(item, g, alpha=None, tau=None, gamma=None, chi=None):
    if g.n > SOLVER_CAP:
        return
    _require(alpha is None or alpha == brute_stable_set(g), item,
             "stable set differs from brute force")
    _require(tau is None or tau == brute_vertex_cover(g), item,
             "vertex cover differs from brute force")
    _require(gamma is None or gamma == brute_dominating_set(g), item,
             "dominating set differs from brute force")
    if chi is not None and g.n <= CHROMATIC_CAP:
        _require(chi == brute_chromatic(g), item,
                 "chromatic number differs from brute force")


def _fingerprint(td):
    return hash((td.bags, tuple(sorted(td.edges))))


def check_members(item, res):
    g, td, report = res["g"], res["td"], res["report"]
    _check_build(item, g, td, report)
    _require(report.certified, item, "class member not certified")
    _require(_same_td(res["td_read"], td), item,
             "written decomposition reads back differently")
    _require(res["verdict"] is None, item, f"verify said {res['verdict']}")
    _check_stable(item, g, res["alpha"])
    _check_oracles(item, g, alpha=res["alpha"][0])


def check_uncertified(item, res):
    g, td, report = res["g"], res["td"], res["report"]
    _check_build(item, g, td, report)
    td_read, n = read_td(io.StringIO(res["td_text"]))
    _require(_same_td(td_read, td) and n == g.n, item,
             "written decomposition reads back differently")


def check_solve(item, res):
    g, td = res["g"], res["td"]
    _check_td(item, g, td)
    _require(res["verdict"] is None, item, f"verify said {res['verdict']}")
    alpha, tau, gamma = res["alpha"][0], res["tau"][0], res["gamma"][0]
    _check_stable(item, g, res["alpha"])
    cover = res["tau"][1]
    _require(len(cover) == tau and all(u in cover or v in cover
                                       for u, v in g.edges()), item,
             f"vertex cover witness does not give {tau}")
    _require(alpha + tau == g.n, item, f"alpha {alpha} + tau {tau} != n")
    dom = res["gamma"][1]
    closed = set(dom).union(*(g.adj[v] for v in dom))
    _require(len(dom) == gamma and len(closed) == g.n, item,
             f"dominating set witness does not give {gamma}")
    ok3, coloring = res["q3"]
    if ok3:
        _require(len(coloring) == g.n
                 and all(coloring[u] != coloring[v] for u, v in g.edges())
                 and set(coloring.values()) <= {0, 1, 2}, item,
                 "3-coloring witness is not proper")
    chi = res["chi"]
    _require((chi <= 3) == ok3, item,
             f"chromatic number {chi} disagrees with 3-colorable={ok3}")
    _check_oracles(item, g, alpha=alpha, tau=tau, gamma=gamma, chi=chi)


def summarize(workload, res):
    """(width, certified, fingerprint of every output) for an ok op.  A
    later pass whose summary equals the checked first pass's gave the same
    outputs, so only the first pass runs the full checks."""
    if workload == "solve":
        answers = tuple((res[k][0], hash(frozenset(res[k][1])))
                        for k in ("alpha", "tau", "gamma"))
        ok3, coloring = res["q3"]
        coloring = None if coloring is None else sorted(coloring.items())
        return (res["td"].width, None, _fingerprint(res["td"]), answers,
                ok3, hash(tuple(coloring or ())), res["chi"])
    report = res["report"]
    extra = res["alpha"] if workload == "members" else None
    if extra is not None:
        extra = (extra[0], hash(extra[1]))
    return (res["td"].width, report.certified, _fingerprint(res["td"]),
            report.bound, extra)


def check_outcome(workload, item, outcome, res, first):
    """Raise WrongOutput on a wrong result (all checks on the first pass);
    return the op's summary, or the exit message for a failed op."""
    if outcome == "invalid":
        raise WrongOutput(f"{item.name}: {res}")
    if outcome == "cap":
        _require(CAP_MESSAGE.search(res), item,
                 f"cap exit does not name its cap: {res!r}")
        return res
    if outcome == "class_violation":
        _require(workload != "members", item, f"class member rejected: {res}")
        return res
    if first:
        CHECKS[workload](item, res)
    return summarize(workload, res)


CHECKS = {"members": check_members, "uncertified": check_uncertified,
          "solve": check_solve}
