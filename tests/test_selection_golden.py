"""Golden pins for the candidates every proposer kind selects.

Each case runs one AL cell the way a sweep does, through `make_proposer`
and `run_active_learning`, on synthetic:quadratic2d:60:1 with 3 initial
points and a cap of 15 steps, at seeds 0..4. GPR, RFR and BNN run at
alphas 0 and 2 with small models. GBT runs at alpha 0 only: its std is
rounding noise, so at alpha 2 it selects its alpha-0 ids at every seed.
LLM runs replay scripted replies in both prompt formats, with offline
reports, so parsing, pool matching, the strict re-prompt and the random
fallback are pinned too. Each pin is the sha256 of the comma-joined
selected ids. These pins were recorded before the `runs/` reader moved
out of the command line, and are the correctness gate for any change
that claims to keep selections: never re-record them to make a change
pass.
"""

import hashlib

import pytest

from albench.bnn import BNNConfig
from albench.clients import ScriptedChatClient
from albench.data import synthetic_pool
from albench.engine import run_active_learning
from albench.forest_gbt import ForestConfig, GBTConfig
from albench.proposers import ProposerSettings, make_proposer
from albench.types import PromptFormat, ProposerKind, RunConfig

POOL = synthetic_pool("quadratic2d", 60, 1)
SETTINGS = ProposerSettings(
    forest=ForestConfig(n_trees=10, max_depth=4),
    gbt=GBTConfig(n_rounds=20),
    bnn=BNNConfig(hidden_layers=1, width=8, epochs=30, mc_samples=10),
    offline_reports=True,
)
SEEDS = range(5)


def point(x1, x2):
    return f"```\nx1: {x1}\nx2: {x2}\n```"


# One reply per chat call. Call 3 fails to parse once, so its strict
# re-prompt answers; calls 6 and 7 fail twice, so that step falls back to
# the run's random substream.
REPLIES = [
    point(0.9, -0.9), point(-0.7, 0.6), point(0.5, 0.5), "no proposal here", point(-0.2, -0.8),
    point(0.8, 0.1), "still prose", "x1 is about 0.3", point(0.05, 0.05), point(-0.9, 0.9),
    point(0.3, -0.3), point(-0.4, -0.4), point(0.6, 0.7), point(0.1, -0.6), point(-0.1, 0.2),
    point(0.0, 0.0),
]


def variants(kind):
    """(label, alpha, prompt format) of each run of `kind` at one seed."""
    if kind is ProposerKind.LLM:
        return [(fmt.value, 0.0, fmt) for fmt in PromptFormat]
    alphas = (0.0, 2.0) if kind in (ProposerKind.GPR, ProposerKind.RFR, ProposerKind.BNN) else (0.0,)
    return [(f"a{alpha:g}", alpha, PromptFormat.PARAMETER) for alpha in alphas]


CASES = {
    f"{kind.value}-{label}-s{seed}": RunConfig(
        proposer=kind, alpha=alpha, seed=seed, n_initial=3, max_iterations=15, prompt_format=fmt)
    for kind in ProposerKind for label, alpha, fmt in variants(kind) for seed in SEEDS
}


def selected_digest(config: RunConfig) -> str:
    client = ScriptedChatClient(REPLIES) if config.proposer is ProposerKind.LLM else None
    proposer = make_proposer(config, SETTINGS, chat_client=client, backoff=0)
    ids = run_active_learning(POOL, config, proposer).selected_ids()
    return hashlib.sha256(",".join(map(str, ids)).encode("ascii")).hexdigest()


GOLDEN = {
    "bnn-a0-s0": "e9771f943818bf3f455e0d7b661d6a3fa2259107ae8f6631026d9f266d0b3d93",
    "bnn-a0-s1": "40ede18a87e0ad2d2530719fcf4f2ff70ad47d0adef41b380b58259b27002cea",
    "bnn-a0-s2": "253694e6c76c0f62f1db763727d7c17a5615d28f08f2ae384607beb010e65689",
    "bnn-a0-s3": "fd2ba67ad8666fce2b42d21167746beb3b70d8d7a23036834a662c2496e570b7",
    "bnn-a0-s4": "01180da39c805cc34ed3e3f55e727d4202f94f17d5409b51e09bcf88514be3ee",
    "bnn-a2-s0": "6e4e2f7cbf86429b587c37f013fb86a94048a5f6b22e59631e979ce67b5b1701",
    "bnn-a2-s1": "40ede18a87e0ad2d2530719fcf4f2ff70ad47d0adef41b380b58259b27002cea",
    "bnn-a2-s2": "6b6439d2f24466c8671d0237a63059f60288c59f639659986117dc025adee49d",
    "bnn-a2-s3": "12846557b4fd24c5203a84fef50495ccd54b549576def07af111173c18eaa9bf",
    "bnn-a2-s4": "01180da39c805cc34ed3e3f55e727d4202f94f17d5409b51e09bcf88514be3ee",
    "gbt-a0-s0": "d1252b1d7226745aa54764c82e4bb380b3cdda120d2493b09a342b8a222c2515",
    "gbt-a0-s1": "59653200004b4a5b46af3017800d46e27f621379474707a8e23676d2cb666a73",
    "gbt-a0-s2": "5e1d4b0568f20c9217f0c7ac5ae2010c0f43532f4bbe802691a987f93a4eb885",
    "gbt-a0-s3": "5cf44fdc94b5e952e3f307cb9b2b13be9b6f2d4056d046ba183e65e90e44b757",
    "gbt-a0-s4": "8b4b525a0e77a2643d04a06279642396c550b572761329a1402beebbcbe3830f",
    "gpr-a0-s0": "2cf8d057a8ac9d582ffc9ec59266997fefed90f8d02370c97804397d74dd98a6",
    "gpr-a0-s1": "2e4572ace7368792793b35ce19d44c3957b26199c8d8b4df51410430d8f9ba8f",
    "gpr-a0-s2": "702c6194a0cf2b0e413782bb6f7efcea9a42cc1840b67a66a6fff08e9c2f15bf",
    "gpr-a0-s3": "bb21c07918a31898779577758207e855998a8d0b07d3e80809621015c673e09b",
    "gpr-a0-s4": "e3f24340d9050af3e4f9fc2fdd4a0f44ad65a51ecefe81d23938eb2a3a7b300a",
    "gpr-a2-s0": "8f52c1c016c959d9b42f6c08da679072df571a55eca7b027028925e0cd77821e",
    "gpr-a2-s1": "73e8c67780813209fadd4826b3835d24ce8d8b42146e21e2b35b598e3ac409f1",
    "gpr-a2-s2": "da3c0dec23554aaa1aaf0f3e9978f155faad316f1317575996962269b1d984ba",
    "gpr-a2-s3": "b81a685b133590ea3747cfb6540bed3f8029c25396079241826d92f19ab4c5e7",
    "gpr-a2-s4": "53b162f99f1ddf4105c86bf5c9a744c65422d31cd16411f1b1ad97ed6dbdfe62",
    "llm-parameter-s0": "854c956ff5f6ad50a85603ed766a28468573628df017847fa224df4b41a59429",
    "llm-parameter-s1": "291b51cec89fe712e468cafe0d9084f8d1311422401a87dbce025c2bab7ca97e",
    "llm-parameter-s2": "a9299640d5a39cfdde36d1c003735689818444961c7fff550c702b77a3435e00",
    "llm-parameter-s3": "d20021065fb76ea5ef42c3586c3ee7c982e4b4d86be0a0fab968ced23a5f1d6d",
    "llm-parameter-s4": "b438d3eaf9277911d622585e63314ca6a711497b313c5396110d1361c2a20a65",
    "llm-report-s0": "854c956ff5f6ad50a85603ed766a28468573628df017847fa224df4b41a59429",
    "llm-report-s1": "291b51cec89fe712e468cafe0d9084f8d1311422401a87dbce025c2bab7ca97e",
    "llm-report-s2": "a9299640d5a39cfdde36d1c003735689818444961c7fff550c702b77a3435e00",
    "llm-report-s3": "d20021065fb76ea5ef42c3586c3ee7c982e4b4d86be0a0fab968ced23a5f1d6d",
    "llm-report-s4": "b438d3eaf9277911d622585e63314ca6a711497b313c5396110d1361c2a20a65",
    "random_walk-a0-s0": "6492886cf2a3ada2b7cdf73baff838ca6601f447d3f9a9b635b3d58a924243db",
    "random_walk-a0-s1": "2a3fec5a9733caf83016cf22d59178c01eb44e036e6829b8191c306a6be31df8",
    "random_walk-a0-s2": "2790bbf4bd317f9c905a3b6a721d07750e0eab32550541f07adda758ad6628cd",
    "random_walk-a0-s3": "5d9d2a0594fd8411345fbed5e08fc541103f6aec01ebd3e2bc62275cef6fb38a",
    "random_walk-a0-s4": "ff8ed57db3972f8642c0d501f8a802cf4aabb704835ed5d0ab3594fa9dd2d2a3",
    "rfr-a0-s0": "04768362630794e5f83bf69b8898d5426d8317e4e0f766fa23197b3d3f4f9cce",
    "rfr-a0-s1": "f9a86b945b6c8d34dd276c7b4e1d0b6597c480c15e129658ce1fa87e5056378a",
    "rfr-a0-s2": "49861e941e2252597e69d299639358a763885eca5700d42eff6b1896618218d1",
    "rfr-a0-s3": "1323332a1bebc8ea9825da949cae69af8960a11f7780f309a4f4903ca35764d1",
    "rfr-a0-s4": "49ac94d7df1f18a2c47d29a37170500bd8cbc1db82e34bea75d7647de0160f2d",
    "rfr-a2-s0": "556b614db97d15a5198a1e9236dd2f7eae3a331e211dda9482c4e9021ec483d7",
    "rfr-a2-s1": "d4bf579f71c6b4bc11403de8ef4d36235fa18edf39f82c6fafbc33c57b3650e8",
    "rfr-a2-s2": "02ca18fbe76c816e1fe347b205d6471be62286404b2c2b00e0b1b3eed2e19b7f",
    "rfr-a2-s3": "03c8b55ac00d829882cbeba56bfc8dd0e8e96a182d8a063f51bf43654b17e8f0",
    "rfr-a2-s4": "4842633a19492bd947eb2f6a1f8bd6392c97026530859ec92073898672b5dac2",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_selected_ids_are_pinned(name):
    assert selected_digest(CASES[name]) == GOLDEN[name]


def test_every_case_has_a_pin():
    assert sorted(CASES) == sorted(GOLDEN)
