"""Compare the CLI artifacts of two source trees, file by file.

Runs ``fracstep solve``, ``compare`` and ``verify`` on the README's
example configuration (its json block) and on every
``perfbench/workloads/*.json`` configuration, once with each tree's
``src`` on ``PYTHONPATH``, and reports for every artifact but
``meta.json`` (which records timings and versions) whether the two
trees wrote it byte-identical, or else the largest absolute difference
between its numbers and the largest relative one, ``|p - q| / max(|p|,
|q|)`` over the pairs that are not both zero:

    python3 scripts/compare_artifacts.py <tree A> <tree B> [--out DIR]

The configurations are read from this repository; ``perfbench/`` is
only read.  The exit status is 0 when every file is byte-identical and
1 otherwise.
"""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("solve", "compare", "verify")


def configs(directory):
    """Write the README example to ``directory``; return (name, path)
    pairs for it and every benchmark workload configuration."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        block = re.search(r"```json\n(.*?)```", handle.read(), re.S).group(1)
    readme = os.path.join(directory, "readme.json")
    with open(readme, "w", encoding="utf-8") as handle:
        handle.write(block)
    found = [("readme", readme)]
    workloads = os.path.join(ROOT, "perfbench", "workloads")
    for name in sorted(os.listdir(workloads)):
        if name.endswith(".json"):
            found.append((name[:-5], os.path.join(workloads, name)))
    return found


def run(tree, config, out):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for command in COMMANDS:
        subprocess.run([sys.executable, "-m", "fracstep.cli", command,
                        "--config", config, "--out", out],
                       env=env, check=True, stdout=subprocess.DEVNULL)


def numbers(path):
    """Every number of a CSV or JSON artifact, in file order."""
    if path.endswith(".json"):
        def walk(value):
            if isinstance(value, dict):
                for key in sorted(value):
                    yield from walk(value[key])
            elif isinstance(value, list):
                for item in value:
                    yield from walk(item)
            elif isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                yield float(value)
        with open(path, encoding="utf-8") as handle:
            return list(walk(json.load(handle)))
    out = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    pass
    return out


def difference(a, b):
    """How the artifacts ``a`` and ``b`` differ, as one line."""
    with open(a, "rb") as one, open(b, "rb") as two:
        if one.read() == two.read():
            return "byte-identical"
    x, y = numbers(a), numbers(b)
    if len(x) != len(y):
        return f"differs: {len(x)} numbers against {len(y)}"
    pairs = [(p, q) for p, q in zip(x, y)
             if not (math.isnan(p) and math.isnan(q))]
    worst = max((abs(p - q) for p, q in pairs), default=0.0)
    relative = max((abs(p - q) / max(abs(p), abs(q)) for p, q in pairs
                    if p or q), default=0.0)
    return (f"differs: largest absolute difference {worst:.3e}, "
            f"largest relative {relative:.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--out", help="keep the artifacts here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        base = args.out or scratch
        identical = True
        for name, config in configs(scratch):
            outs = []
            for side, tree in (("a", args.tree_a), ("b", args.tree_b)):
                outs.append(os.path.join(base, name, side))
                run(os.path.abspath(tree), config, outs[-1])
            a, b = (set(os.listdir(o)) - {"meta.json"} for o in outs)
            for artifact in sorted(a | b):
                if artifact in a and artifact in b:
                    result = difference(*(os.path.join(o, artifact)
                                          for o in outs))
                else:
                    result = f"written by tree {'a' if artifact in a else 'b'}"
                identical &= result == "byte-identical"
                print(f"{name}/{artifact}: {result}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
