"""Command-line driver: catalog queries, hom order, searches, suites, solving.

Exit codes: 0 for a positive result (found / holds), 1 for a negative one
(not found / refuted), 2 for usage or input errors.  Long-running jobs sit
behind explicit flags and honor --time-budget by aborting with exit 2.
Each command imports the modules it runs in its own handler, so a command
starts up paying only for those: `gen` and `solve` load no search code.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import structures
from .errors import FormatError, PcspError, TimeBudgetExceeded, deadline_after, seconds
from .structures import TemplatePair, all_symmetric_ternary_structures, named_template

DEFAULT_ARITY_CAP = 5  # poly enumerate and verify lemmas go past it only with --force; the library takes any arity


def _load_structure(arg: str) -> structures.RelStructure:
    try:
        return named_template(arg)
    except ValueError:
        pass
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as handle:
            return structures.parse_structure(handle.read())
    raise FormatError(f"{arg!r} is neither a catalog template nor a readable structure file")


def _cmd_template(args) -> int:
    from . import solvers

    target = _load_structure(args.name)
    label = None
    if target.domain_size == 3 and target.signature == (3,) and target.single_ternary().symmetric:
        label = solvers.classify_template(target)
    if args.action == "classify":
        if label is None:
            raise FormatError("classification needs a 3-element symmetric single ternary structure")
        print(label)
        return 0
    print(f"domain: {target.domain_size}")
    for rel in target.relations:
        tuples = " ".join("".join(map(str, t)) for t in rel.tuples)
        print(f"relation (arity {rel.arity}): {tuples}")
    if target.signature == (3,):
        digraph = structures.associated_digraph(target)
        arcs = " ".join(f"{a}->{b}" for a, b in digraph.sorted_arcs())
        print(f"digraph arcs: {arcs}")
        rel = target.single_ternary()
        closed = rel.symmetric and structures.rainbow_triples(target.domain_size) <= rel.as_set
        print(f"plus-closed: {'yes' if closed else 'no'}")
    if label is not None:
        print(f"classification: {label}")
    return 0


def _cmd_hom(args) -> int:
    from .homs import hom_lattice, hom_order_compare, lattice_to_dot

    if args.action == "compare":
        first = _load_structure(args.first)
        second = _load_structure(args.second)
        print(hom_order_compare(first, second))
        return 0
    if args.all3:
        inputs = all_symmetric_ternary_structures()
    else:
        inputs = [named_template(name) for name in structures.template_names_3()]
    lattice = hom_lattice(inputs, deadline=args.deadline)
    dot = lattice_to_dot(lattice)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dot)
        print(f"wrote {len(lattice.classes)} classes to {args.out}")
    else:
        sys.stdout.write(dot)
    return 0


def _pair_target(src_name: str, tgt_name: str) -> structures.RelStructure:
    from .polymorphisms import one_in_three_target

    return one_in_three_target(TemplatePair(_load_structure(src_name), _load_structure(tgt_name)))


def _past_cap_note(arity: int) -> None:
    print(f"note: arity {arity} is past the default cap {DEFAULT_ARITY_CAP}; table space is large", file=sys.stderr)


def _cmd_poly(args) -> int:
    import json

    from . import symmetric
    from .polymorphisms import enumerate_polymorphisms, is_polymorphism, parse_poly_table, subset_masks

    if args.action == "enumerate":
        target = _pair_target(args.source, args.target)
        if args.arity > DEFAULT_ARITY_CAP:
            if not args.force:
                print(f"arity {args.arity} exceeds the default cap {DEFAULT_ARITY_CAP}; pass --force", file=sys.stderr)
                return 2
            _past_cap_note(args.arity)
        count, order = 0, None
        for values in enumerate_polymorphisms(target, args.arity, deadline=args.deadline):
            order = order or subset_masks(args.arity)  # built on the first table, so an abort never pays for it
            print("".join(str(values[m]) for m in order))
            count += 1
        print(f"count {count}", file=sys.stderr)
        return 0

    if args.action in ("search-sym", "search-block"):
        target = _pair_target(args.source, args.target)
        options = {"use_wlog": not args.no_wlog, "deadline": args.deadline}
        sym = args.action == "search-sym"
        if sym:
            result = symmetric.search_symmetric(target, args.arity, **options)
        else:
            result = symmetric.search_block_symmetric(target, args.k1, args.k2, **options)
        table = result.table
        if args.json:
            values = None if table is None else list(table.values)
            payload = {"found": table is not None, "nodes": result.nodes, "values": values}
            if sym:
                # searches take no seeds, so forward checking from the seed forces nothing
                payload["trace"] = None if table is not None else {"events": []}
            print(json.dumps(payload))
        elif table is None:
            print(f"none (search exhausted, {result.nodes} nodes)")
            if not sym and args.k2 % 3 == 0:
                print(f"note: cells g(*, {args.k2 // 3}) form a symmetric arity-{args.k1} subproblem")
        elif sym:
            print(" ".join(f"f({w})={v}" for w, v in enumerate(table.values)))
        else:
            for w1 in range(args.k1 + 1):
                print(f"g({w1},*): " + " ".join(str(table.value(w1, w2)) for w2 in range(args.k2 + 1)))
        return 0 if table is not None else 1

    if args.action == "verify":
        if args.appendix_b:
            return _appendix_b(as_json=args.json)
        if not args.table or not args.template:
            print("poly verify needs a table file plus --template SRC TGT, or --appendix-b", file=sys.stderr)
            return 2
        target = _pair_target(*args.template)
        with open(args.table, encoding="utf-8") as handle:
            table = parse_poly_table(handle.read())
        ok = is_polymorphism(table, target)
        print("valid polymorphism" if ok else "not a polymorphism")
        return 0 if ok else 1
    raise AssertionError(f"unhandled poly action {args.action}")


def _appendix_b(as_json: bool = False) -> int:
    import json

    from . import symmetric

    target = named_template("CHplus")
    certificates = [symmetric.chplus23_certificate(target, seed) for seed in range(4)]
    head = certificates[0]
    if as_json:
        payload = {
            "arity": head.arity,
            "seed_weight": head.seed_weight,
            "certificates": [cert.to_dict() for cert in certificates],
            "automorphism_transitive": all(c.automorphism_transitive for c in certificates),
        }
        print(json.dumps(payload))
        return 0 if all(c.complete for c in certificates) else 1
    print(f"arity-23 replay over CHplus, seed f({head.seed_weight}) = {head.seed_color}")
    for e in head.forced:
        print(f"force f({e.cell}) = {e.color} via {e.triple}")
    print(f"contradiction at f({head.contradiction_weight})")
    for color, trace in head.refutations:
        contradiction = trace.contradiction
        where = f"f({contradiction.cell})" if contradiction else "UNREFUTED"
        print(f"  f(6) = {color} refuted: empty candidates at {where}")
    for cert in certificates[1:]:
        status = "contradiction" if cert.complete else "INCOMPLETE"
        print(f"seed f(8) = {cert.seed_color}: {status} at f({cert.contradiction_weight})")
    transitive = all(c.automorphism_transitive for c in certificates)
    print(f"color group transitive under automorphisms: {'yes' if transitive else 'no'}")
    if all(c.complete for c in certificates):
        print("no symmetric polymorphism of arity 23 exists")
        return 0
    return 1


def _cmd_verify(args) -> int:
    import json

    from . import properties as props

    if args.max_arity > DEFAULT_ARITY_CAP and not (args.action == "lemmas" and args.force):
        hint = "; pass --force" if args.action == "lemmas" else ""  # only lemmas has --force
        print(f"max arity {args.max_arity} exceeds the default cap {DEFAULT_ARITY_CAP}{hint}", file=sys.stderr)
        return 2
    if args.action == "lemmas":
        ids = props.properties_for_template(args.template)
        if not ids:
            print(f"no catalog properties for template {args.template!r}", file=sys.stderr)
            return 2
        if args.max_arity > DEFAULT_ARITY_CAP:
            _past_cap_note(args.max_arity)
        reports = props.check_properties(named_template(args.template), ids, args.max_arity, deadline=args.deadline)
        if args.json:
            print(json.dumps([report.to_dict() for report in reports], indent=2))
        failed = 0
        for report in reports:
            bad = len(report.counterexamples)
            status = "ok" if bad == 0 else f"FAIL ({bad} counterexamples)"
            if not args.json:
                print(f"{report.property_id}: {status} (examined {report.examined}, {report.elapsed_ms:.0f} ms)")
            failed += bad
        return 0 if failed == 0 else 1

    if args.action == "selector":
        specs = [s for s in props.SELECTOR_CATALOG.values() if s.template_name == args.template]
        if not specs:
            print(f"no selector for template {args.template!r}", file=sys.stderr)
            return 2
        ok = True
        results = []
        for spec in specs:
            report = props.verify_selector(named_template(spec.template_name), spec, args.max_arity, deadline=args.deadline)
            results.append(report._asdict())
            if not args.json:
                status = "ok" if report.holds else "FAIL"
                print(
                    f"{spec.name} (k={spec.k}, l={spec.l}): {status} "
                    f"({report.states_explored} states, {report.elapsed_ms:.0f} ms)"
                )
            ok = ok and report.holds
        if args.json:
            print(json.dumps(results, indent=2))
        return 0 if ok else 1
    raise AssertionError(f"unhandled verify action {args.action}")


def _cmd_solve(args) -> int:
    from . import solvers

    target = _load_structure(args.target)
    if args.instance == "-":
        text = sys.stdin.read()
    else:
        with open(args.instance, encoding="utf-8") as handle:
            text = handle.read()
    instance = solvers.parse_instance(text)
    coloring = solvers.solve_via_relaxation(instance, target, prefer=args.prefer, deadline=args.deadline)
    if coloring is None:
        print(f"no {args.target}-coloring found; promise violated or instance hard")
        return 1
    sys.stdout.write(solvers.format_coloring(coloring))
    return 0


def _cmd_gen(args) -> int:
    from . import solvers

    instance, planted = solvers.generate_planted(args.nv, args.ne, args.seed)
    text = solvers.format_instance(instance, planted)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcsplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_template = sub.add_parser("template", help="catalog queries and classification")
    p_template.add_argument("action", choices=["show", "classify"])
    p_template.add_argument(
        "name",
        help="structure file or catalog name: " + ", ".join(structures.NAMED_TEMPLATES),
    )
    p_template.set_defaults(func=_cmd_template)

    p_hom = sub.add_parser("hom", help="homomorphism order and lattice export")
    hom_sub = p_hom.add_subparsers(dest="action", required=True)
    p_compare = hom_sub.add_parser("compare")
    p_compare.add_argument("first")
    p_compare.add_argument("second")
    p_compare.set_defaults(func=_cmd_hom)
    p_lattice = hom_sub.add_parser("lattice")
    group = p_lattice.add_mutually_exclusive_group()
    group.add_argument("--named3", action="store_true", help="named 3-element catalog (default)")
    group.add_argument("--all3", action="store_true", help="all 1023 symmetric ternary structures")
    p_lattice.add_argument("--out", help="write DOT here instead of stdout")
    p_lattice.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")
    p_lattice.set_defaults(func=_cmd_hom)

    p_poly = sub.add_parser("poly", help="polymorphism searches and table checks")
    poly_sub = p_poly.add_subparsers(dest="action", required=True)
    p_enum = poly_sub.add_parser("enumerate")
    p_enum.add_argument("source")
    p_enum.add_argument("target")
    p_enum.add_argument("arity", type=int)
    p_enum.add_argument("--force", action="store_true")
    p_enum.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")
    p_enum.set_defaults(func=_cmd_poly)
    for name in ("search-sym", "search-block"):
        p_search = poly_sub.add_parser(name)
        p_search.add_argument("source")
        p_search.add_argument("target")
        if name == "search-sym":
            p_search.add_argument("arity", type=int)
        else:
            p_search.add_argument("k1", type=int)
            p_search.add_argument("k2", type=int)
        p_search.add_argument("--no-wlog", action="store_true", help="disable the automorphism value fixing")
        p_search.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")
        p_search.add_argument("--json", action="store_true")
        p_search.set_defaults(func=_cmd_poly)
    p_pverify = poly_sub.add_parser("verify")
    p_pverify.add_argument("table", nargs="?", help="polymorphism table file")
    p_pverify.add_argument("--template", nargs=2, metavar=("SRC", "TGT"))
    p_pverify.add_argument("--appendix-b", action="store_true", help="replay the seeded arity-23 contradiction over CHplus")
    p_pverify.add_argument("--json", action="store_true")
    p_pverify.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser("verify", help="exhaustive fact suites")
    verify_sub = p_verify.add_subparsers(dest="action", required=True)
    p_lemmas = verify_sub.add_parser("lemmas")
    p_lemmas.add_argument("template")
    p_lemmas.add_argument("--max-arity", type=int, default=4)
    p_lemmas.add_argument("--force", action="store_true")
    p_lemmas.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")
    p_lemmas.add_argument("--json", action="store_true")
    p_lemmas.set_defaults(func=_cmd_verify)
    p_selector = verify_sub.add_parser("selector")
    p_selector.add_argument("template")
    p_selector.add_argument("--max-arity", type=int, default=3)
    p_selector.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")
    p_selector.add_argument("--json", action="store_true")
    p_selector.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="color an instance against a supported target")
    p_solve.add_argument("target")
    p_solve.add_argument("instance", nargs="?", default="-", help="instance file (default stdin)")
    p_solve.add_argument("--prefer", choices=["t2", "nae"], default="t2")
    p_solve.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="emit a seeded planted instance")
    p_gen.add_argument("nv", type=int)
    p_gen.add_argument("ne", type=int)
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


PARSER = build_parser()  # each parse fills a fresh namespace, so one parser serves every call


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # taken before the handler loads anything, so a budget covers loading and checking the target too
    args.deadline = deadline_after(getattr(args, "time_budget", None))
    try:
        return args.func(args)
    except TimeBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except (PcspError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
