import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RENDER = """
import random
from opaqcheck import render_model
from opaqcheck.generate import random_system
rng = random.Random(21)
print("".join(render_model(random_system(rng, max_states=12)) for _ in range(20)))
"""


def test_random_system_is_the_same_under_every_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", RENDER], env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
