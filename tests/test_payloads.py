"""The committed payload corpus: same command, same answer, bit for bit.

Each command in ``data/payloads/manifest.json`` runs through ``main()`` in
process; its exit code and whole payload must equal the committed document,
floats included.  ``regenerate_payloads.py`` rewrites the documents when a
payload changes on purpose.
"""

import json

import pytest

from .regenerate_payloads import CORPUS, manifest, run_command

MANIFEST = manifest()


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_payload_matches_corpus(name):
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    code, payload = run_command(MANIFEST[name]["argv"])
    assert code == doc["exit_code"]
    assert payload == doc["payload"]


def test_corpus_has_one_document_per_command():
    docs = {p.stem for p in CORPUS.glob("*.json")} - {"manifest"}
    assert docs == set(MANIFEST)
