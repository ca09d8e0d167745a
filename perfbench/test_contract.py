"""Checks BENCHMARK.json against the names the benchmark binary reports.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec_names(table):
    """Names in one MetricSpec table of workload.h, in order."""
    with open(os.path.join(HERE, "workload.h")) as f:
        text = f.read()
    body = re.search(table + r"\[\] = \{(.*?)\n\};", text, re.S).group(1)
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        names += [m["name"] for m in self.bench["end_to_end"]]
        names += [m["name"] for m in self.bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_metrics_match_the_binary(self):
        for key, table in (("end_to_end", "kEndToEndMetrics"),
                           ("per_layer", "kLayerMetrics")):
            declared = [(m["name"], m["unit"]) for m in self.bench[key]]
            self.assertEqual(declared, spec_names(table), key)

    def test_workloads_match_run_py(self):
        with open(os.path.join(HERE, "run.py")) as f:
            run = f.read()
        for w in self.bench["workloads"]:
            self.assertIn('"%s"' % w["name"], run)

    def test_bounds(self):
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        bounds = [m["bound"] for m in self.bench["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))


if __name__ == "__main__":
    unittest.main()
