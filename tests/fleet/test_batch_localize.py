"""``repro batch-localize`` on an empty case list.

The command makes one :meth:`RAPMiner.run_batch` call over the bundle
and never admits cases to the fleet; an empty bundle must print no rows
and report a zero-case batch.  The command's other tests are in
``tests/test_cli.py::TestBatchLocalize``.
"""

from __future__ import annotations

from repro import RAPMiner
from repro.cli import main
from repro.data.io import save_cases


class TestBatchLocalize:
    def test_empty_case_list(self, tmp_path, capsys):
        assert RAPMiner().run_batch([]) == []
        for name in ("empty.json", "empty.npz"):
            path = tmp_path / name
            save_cases([], path)
            assert main(["batch-localize", "--cases", str(path), "--k", "3"]) == 0
            out = capsys.readouterr().out
            assert "hits" not in out
            assert "0 cases in one batch" in out
