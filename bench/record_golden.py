"""Record golden.json: the verify checks of every built-in document.

Run from the root of a lescop checkout, at the commit whose output is the
reference::

    python3 bench/record_golden.py
"""

import contextlib
import io
import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    paths = workloads.write_corpus(workloads.Writer(run.WORK / "golden"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "--json", *paths.values()])
    data = json.loads(out.getvalue())
    if code != 0 or data["ok"] is not True:
        raise SystemExit(f"verify of the built-in corpus failed (exit code {code})")
    names = {path: name for name, path in paths.items()}
    lines = [f"  {json.dumps(names[r['file']])}: "
             f"{json.dumps([[c['name'], c['status']] for c in r['checks']])}"
             for r in data["results"]]
    text = '{"verify": {\n' + ",\n".join(lines) + "\n}}\n"
    workloads.GOLDEN_PATH.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
