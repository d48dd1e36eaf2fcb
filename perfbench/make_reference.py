#!/usr/bin/env python3
"""Write perfbench/reference.json from the checkout's src/.

    python3 perfbench/make_reference.py

The reference is the output the benchmark checks every run against:

* ``sweep``: ``Certificate.to_json_dict()`` of every sweep point with
  n <= 20 over QQ and over GF(10007), or null for a refused case;
* ``ses``: the ``SesReport`` fields of every pair 1 <= a <= b <= 14;
* ``cli``: the SHA-256 and row count of ``twistlines sweep --n-max N
  --format json`` for the benchmark's N and the smoke test's N, run
  serially, so the parallel run is also held to the serial bytes.

Regenerate it only for a deliberate, documented change of output.
"""

import hashlib
import json
import sys

import run


def main():
    run.load_package()
    from twistlines import families, fields, verify

    full = run.SIZES["full"]
    sweep = {}
    for name, field in (("QQ", fields.QQ), (f"GF({run.PRIME})", fields.PrimeField(run.PRIME))):
        certs = {}
        for flavor, n, k in verify.sweep_points(2, full["sweep_n_max"], list(run.FLAVORS)):
            try:
                if flavor is None:
                    fam = families.build_classical(field, n, k)
                else:
                    fam = families.build_isotropic(field, n, k, flavor)
            except families.ExceptionalCaseError:
                certs[f"{flavor or 'classical'} {n} {k}"] = None
                continue
            certs[f"{flavor or 'classical'} {n} {k}"] = verify.certify(fam).to_json_dict()
        sweep[name] = certs
    b_max = full["ses_b_max"]
    ses = {
        f"{a} {b}": list(verify.verify_claim_ses(fields.QQ, a, b))
        for b in range(1, b_max + 1)
        for a in range(1, b + 1)
    }
    cli = {}
    for size in run.SIZES.values():
        n_max = size["cli_n_max"]
        code, out, err = run.run_child(["-m", "twistlines.cli", *run.cli_argv(n_max, 1)])
        if code != 0:
            sys.exit(f"cli sweep failed: {err.decode(errors='replace')}")
        rows = len(json.loads(out)["rows"])
        cli[str(n_max)] = {"sha256": hashlib.sha256(out).hexdigest(), "rows": rows}
    reference = {"sweep": sweep, "ses": ses, "cli": cli}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(_dumps(reference, 3) + "\n")


def _dumps(obj, depth, indent=0):
    """JSON with one key per line down to ``depth``, compact below it, so
    each case sits on one line."""
    if depth == 0 or not isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True)
    pad = " " * (indent + 1)
    items = [
        f"{pad}{json.dumps(key)}: {_dumps(value, depth - 1, indent + 1)}"
        for key, value in sorted(obj.items())
    ]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


if __name__ == "__main__":
    main()
