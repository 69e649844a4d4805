"""Record the reference values that the paper-figs correctness gate
compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs each paper-figs operation that names a reference and keeps the rows
at integer lambda_t (every REFERENCE_STRIDE-th point of the 201-point
preset grids) with their values parsed from the CSV.  The file was
recorded once from the commit that introduced the benchmark; a change
that claims a gain must not re-record it.
"""

import contextlib
import io
import json

from qdcavity import cli

import gate
import run

REFERENCE_STRIDE = 20


def record():
    spec = run.load_workloads()["paper-figs"]
    csvs = {}
    for op in spec["ops"]:
        if "reference" not in op:
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.main(op["argv"])
        _, columns, rows = gate.parse_csv(buffer.getvalue())
        steps = 201
        per_curve = 4 * steps if "branch" in columns else steps
        kept = {}
        for index, row in enumerate(rows):
            if (index % per_curve) // (per_curve // steps) % REFERENCE_STRIDE:
                continue
            kept[gate.row_key(columns, row)] = [
                cell if name == "branch" else float(cell)
                for name, cell in zip(columns, row)]
        csvs[op["reference"]] = {"argv": op["argv"], "columns": columns,
                                 "rows": kept}
    return {"atol": gate.REFERENCE_ATOL, "stride": REFERENCE_STRIDE,
            "csv": csvs}


def main():
    data = record()
    lines = ["{", f'  "atol": {json.dumps(data["atol"])},',
             f'  "stride": {data["stride"]},', '  "csv": {']
    names = list(data["csv"])
    for i, name in enumerate(names):
        entry = data["csv"][name]
        lines.append(f'    {json.dumps(name)}: {{')
        lines.append(f'      "argv": {json.dumps(entry["argv"])},')
        lines.append(f'      "columns": {json.dumps(entry["columns"])},')
        lines.append('      "rows": {')
        keys = list(entry["rows"])
        for j, key in enumerate(keys):
            comma = "," if j < len(keys) - 1 else ""
            lines.append(f'        {json.dumps(key)}: '
                         f'{json.dumps(entry["rows"][key])}{comma}')
        lines.append("      }")
        lines.append("    }" + ("," if i < len(names) - 1 else ""))
    lines += ["  }", "}"]
    gate.REFERENCE_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {gate.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
