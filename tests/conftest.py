import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def abel_steps(monkeypatch):
    """The sample refinement q of every even-d Abel rule run in the test."""
    from conemult import radial
    steps = []
    pick = radial._abel_samples

    def recorded(*args):
        q, samples, correction = pick(*args)
        steps.append(q)
        return q, samples, correction

    monkeypatch.setattr(radial, "_abel_samples", recorded)
    return steps
