"""Pinned output digests: the byte-exact behaviour of small seeded runs.

Together the configs cover every ranker, every re-ranker and every non-LLM
creator policy, plus a multi-worker run, two full-information runs (one with
a policy that reads the overridden audience beliefs), two runs in which
creators depart (one under a diversity re-ranker, one under the P-MMF fairness
re-ranker, whose alive set then shrinks while it serves) and an LLM policy run
against an in-process stub endpoint; one more LLM run reads its
dataset from disk, with more users and creators than the run keeps, so the
world drops some of them with their items and interactions. Each run also pins
`dataset_summary.json` (the genre vocabulary, the kept user and creator counts
and the population preference). A change that keeps these
digests keeps the simulator's behaviour; a change that alters them must say
why in CHANGES.md and re-pin them here.

Print fresh digests with `python tests/test_digests.py`.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from creatorsim import SimConfig, SynthParams, run_simulation, synth_dataset
from creatorsim.core import stream

DIGEST_FILES = (
    "events.csv", "items.csv", "creator_trace.csv", "metrics.json", "config.txt",
    "dataset_summary.json",
)
SMALL = dict(n_users=40, n_creators=15, n_steps=30)
# relative, so config.txt reads the same wherever the run starts
DATA_DIR = "data"

CONFIGS = {
    "mf-none-creagent": dict(ranker="mf", reranker="none", creator_policy="creagent", seed=1),
    "bpr-pmmf-cfd-workers3": dict(
        ranker="bpr", reranker="pmmf", creator_policy="cfd", workers=3, seed=2
    ),
    "pop-mmr-lbr": dict(ranker="pop", reranker="mmr", creator_policy="lbr", seed=3),
    "random-fairrec-simuline": dict(
        ranker="random", reranker="fairrec", creator_policy="simuline", seed=4
    ),
    "mf-fairco-random-full": dict(
        ranker="mf", reranker="fairco", creator_policy="random",
        creator_full_information=True, seed=5,
    ),
    "mf-none-creagent-full": dict(
        ranker="mf", reranker="none", creator_policy="creagent",
        creator_full_information=True, seed=9,
    ),
    "bpr-mmr-creagent-departures": dict(
        ranker="bpr", reranker="mmr", creator_policy="creagent", departure_threshold=2,
        retrain_period=3, seed=6,
    ),
    "pop-pmmf-llm-stub": dict(ranker="pop", reranker="pmmf", creator_policy="creagent_llm", seed=7),
    "random-pmmf-creagent-departures": dict(
        ranker="random", reranker="pmmf", creator_policy="creagent", departure_threshold=2,
        retrain_period=3, seed=10,
    ),
    "mf-fairco-llm-loaded-workers2": dict(
        ranker="mf", reranker="fairco", creator_policy="creagent_llm", workers=2,
        data_dir=DATA_DIR, seed=8,
    ),
}

PINNED = {
    "bpr-mmr-creagent-departures": {
        "events.csv": "d01fc9a90dc50bcaad45c0c65e3a759802e05b1b6966b4f333216bfd58f17fc7",
        "items.csv": "3f0e544a7e6ac5bf1fee0d9182c871e151f756f0342cb28a2bc6bbf5c3781a20",
        "creator_trace.csv": "26fc3b5ce93a207b07ac004b7781a63b7d79be7bb889b75911043b3adaef6c9a",
        "metrics.json": "e6e3459cb34bf7234b0f385bf34189a494df7c991e547bffeb378135cf451e40",
        "config.txt": "0dc4f2bfe0eec89cd8b8577ab7683a247fabe8a1508c1ae340cead31f2694b2c",
        "dataset_summary.json": "3e4936566353d3d13da54f6ffb985f20be427377122edcedb269ab7669e342d3",
    },
    "bpr-pmmf-cfd-workers3": {
        "events.csv": "c2c595d70693f879ac93287d1ed4096b516dc846f8fa59ba5ce539219dd3fec0",
        "items.csv": "6964b03de7594e637ca326f573e5457b863ec6b9e442901de631bc833f7bd52a",
        "creator_trace.csv": "e4d072d8c992a9fa1551d0c01539c4081a2dead0f9a7221acdcc0edf9f9de248",
        "metrics.json": "1ef092deb6c9a7f2581ad3f68b82c6df2b6bfb1dbf95367047fb7849febaea34",
        "config.txt": "cc0bc91bd5d07fdaf4e948c9ee68aa2828a46406d12f098b3b142c25879f1b07",
        "dataset_summary.json": "285627a704081982e30b99ea21c437682b481157fd814f54f9480a01c1c672cd",
    },
    "mf-fairco-llm-loaded-workers2": {
        "events.csv": "9db12472a77f44d59089622ee900bc30e90ac173837ae2649eb640c227bf3cde",
        "items.csv": "6b46f9dfbb50b083b5d7c783b39df206e07f77ce4477342fb39ee62752585b27",
        "creator_trace.csv": "2716eddfcfe500e887f12879c67ce853f9beacadecb7d8ec4bc7821f81b245d1",
        "metrics.json": "f0c27a1590b21f6f9030d8ec83a2cc8e27fec749c07d8c5965d4f72f557f7b3a",
        "config.txt": "8092ec208f2588c62746291be047f15a7088228e84f68c218fadbc94f31a3128",
        "dataset_summary.json": "dc9bfb0fc5e43d9519163ee41c4c6d3218784aa414a82aad98248443ca8f54e0",
    },
    "mf-fairco-random-full": {
        "events.csv": "f310810b16cb6b5b59b0e83a3c818ebabb283a30c76916f6258a9f04e62b1830",
        "items.csv": "0b6628113623c74357aec543a8f9e632bf42bdb148b14d9749f0c8049a6467e2",
        "creator_trace.csv": "21e0ae86b08fc248b366f5325bbbeded47012edb2025f7a5f85cdf10360b506d",
        "metrics.json": "d3158d7c909ebcc36bdf289fbd0cf0eb6773f850257406be2177310cd258c4f0",
        "config.txt": "e5eb81f6f7bdc8e3f1f2ff3a56faa589a078cb25db653704640cf2fbc78ab114",
        "dataset_summary.json": "24a0eec06cfd6b65935b7dd1951e9d00923418a8c5d542df762e6c0e0a2d834f",
    },
    "mf-none-creagent-full": {
        "events.csv": "acd33f87a30cea608a855a7acfe21a8cd25a0d3a0625b0a89ac35499f8f4c86f",
        "items.csv": "b8a2926befde72ca3ea03f18b11293f190a42df36d9e77fabc4aac15d776926f",
        "creator_trace.csv": "3275b3249a8124fe568a45010cb991d772de35a1e21d0f7a8fbfb997391c8199",
        "metrics.json": "e9124797d40490dff73d0ec28ab8b24ac07fececfe7191219106d51f1ef3248c",
        "config.txt": "9d45fc5d8d85bb51b32aa4cf11c3ed925f7e8ebf004b97a9a8773be1e993cac9",
        "dataset_summary.json": "6791848c6ea7b3b2ef280df31da404d377371003ca1f9e9bb665b527a6e6a5e8",
    },
    "mf-none-creagent": {
        "events.csv": "edd735184fd012184a9ee28275f1ba57edf455dad8298f9d71a0b913c2539c13",
        "items.csv": "ae10a3ba266b6f3f9ae3ff8c8e7c40bfa38c41b5a7c1d93b208f015c742123a6",
        "creator_trace.csv": "f6278c5150098c1bfb0b91b1502a296d52f4cc5990e9c47d628ebe6c79ae1540",
        "metrics.json": "7ea01e7ab60a8221881432a690368068fd936b3e92d3f71445dfe22298d10e79",
        "config.txt": "2242723ec6a167e56b58747fe899324890d864d9a028403206768e8bb2348c94",
        "dataset_summary.json": "90eab5ac23cf3e85694c808ed0308ea08f43761e0f3231f484419d58fceac565",
    },
    "pop-mmr-lbr": {
        "events.csv": "f2670a3bfd9b888a505d27672fb2fc132f901d406666e1721c21d3b1bb8e95f3",
        "items.csv": "c7fd765acbbbec4a0107cb1e747ca05c2645f9c1c9ca9e79aacfc76bf757d0ac",
        "creator_trace.csv": "27c00b6d50df728ba4271a684d1b3e474ef7b1c1fd97a120af423f0fe7eb59bc",
        "metrics.json": "70f49b1495e7633594deceab3af24add6230bc765502a34a3e35396914e558d9",
        "config.txt": "680d313c78f7491a4759c93390c938e67275375778d8215b866aa8bc20e8da26",
        "dataset_summary.json": "0f7df127decc9a2420be800ac6cab3b39a223ac718f863d290f00c622f28434a",
    },
    "pop-pmmf-llm-stub": {
        "events.csv": "3812f298718b15e5b6981db04dd6525d251f05294786f73f403b91529aa45f48",
        "items.csv": "149e04112a813e03c4fd2b0cd64752d465c4b279d7e3b89354b3550565af2372",
        "creator_trace.csv": "137f781006a448f491318eb3547730135086878fc6a442fbb04aa1c1653d6f06",
        "metrics.json": "cdcd2b15f9f9765e341f5f6feaea26b09946f9862b7c946ed0f1c83badee1ab0",
        "config.txt": "617140cd2b8af4a90082d569cb6824089ea5d7161c7ce67ce9e77cc2dd542026",
        "dataset_summary.json": "4c43a93e43181ec8ef6100a7b650a5e1d201f02fe052c2f79e0e8f31e573462f",
    },
    "random-pmmf-creagent-departures": {
        "events.csv": "0f69e47271ee361fa6ffd3923305a7d876fab59a107c350d6455b0469aad66f8",
        "items.csv": "a128447e7e5ad1006b8b40240f5a0faa2ddd9eef624cf7caf7c70cc19d5e48a7",
        "creator_trace.csv": "9c6f6772ffdfb8f12fdefa51f53c2d00dc132b6a3e0621be24244ae7748e8116",
        "metrics.json": "d523d00f86ccbbfbd5331b026a8d4cad0c30dc4a0ff0a4b5fe6ca83b11fd6c19",
        "config.txt": "554006d7af44f4960cbed49231954f8a095fb01b24ff5fb8e49af1a7930bed96",
        "dataset_summary.json": "12e1df018027dfe2c7248f425cae6f85b0b04906a317bd0cca2e192dbb7e9aca",
    },
    "random-fairrec-simuline": {
        "events.csv": "43e98d0023fad79d91905f97a796f3883ed936295b7a50835ad7b1c1945555e2",
        "items.csv": "51d08bcb103ec5e80d854a10836ba5df67738ad3110d0f15a2f828a23846fb51",
        "creator_trace.csv": "33c76f0f8d7d144f03a63e52a6218b0f2baea3c5d688b88e1477fe0102014bb7",
        "metrics.json": "399bba6578db6093b44d28c3329a6a693dc165d6c3cf885111907f333eda0cef",
        "config.txt": "0f2e862447a755ed67cec5160a93460bbda9b874619a4b6f604ee2b6e67c6d0d",
        "dataset_summary.json": "6b7706af622bbecc1bb977043282ecb300161230110364f4f0ddbecb9cdcfcd9",
    },
}


# sha256 of `SimConfig().to_text()`: every accepted key, in order, with its default
DEFAULT_CONFIG_TEXT = "68148781786f27e070e6eb47030e4797fc4c212480068458ba01424974091b29"


def _after(text: str, marker: str, end: str) -> str:
    rest = text.split(marker, 1)[1]
    return rest[: rest.index(end)]


def stub_transport(url: str, payload: dict, timeout: float) -> tuple[int, str]:
    """Chat-completion stand-in whose reply is a pure function of the prompt.

    One prompt in five gets an unparsable reply, so the fallback path runs too.
    """
    prompt = payload["messages"][0]["content"]
    h = hashlib.sha256(prompt.encode("utf-8")).digest()[0]
    if h % 5 == 0:
        text = "Sorry, I cannot help with that."
    elif "[Social Identity]" in prompt:
        text = f"[Social Identity]: stub persona {h % 7}"
    elif "[Intrinsic Motivation]" in prompt:
        text = "[Intrinsic Motivation]: " + ("profit" if h % 2 else "sharing")
    elif "[EXPLORE]::" in prompt:
        unknown, known = (
            part[: part.index(".\n\n")].split(", ")
            for part in prompt.split("genre name chosen from ")[1:]
        )
        kind, choices = ("EXPLORE", unknown) if h % 2 else ("EXPLOIT", known)
        text = f"[{kind}]:: {choices[h % len(choices)]}"
    else:
        genre = _after(prompt, "Based on the analysis: [", ", please").split("]: ", 1)[1]
        text = json.dumps(
            {"name": f"stub item {h}", "genre": genre, "tags": ["stub", f"take-{h % 3}"],
             "description": f"A {genre} item from the stub."}
        )
    return 200, json.dumps({"choices": [{"message": {"content": text}}]})


def write_loaded_dataset(path: Path) -> None:
    """60 users and 20 creators on disk, for a run that keeps 40 and 15."""
    params = SynthParams(n_users=60, n_creators=20, seed=8)
    synth_dataset(params, stream(8, "synth")).to_dir(path)


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    """Run config `name` from the current directory, where `DATA_DIR` is written."""
    cfg = SimConfig(**SMALL, **CONFIGS[name])
    if cfg.data_dir:
        write_loaded_dataset(Path(cfg.data_dir))
    transport = stub_transport if cfg.creator_policy == "creagent_llm" else None
    run_simulation(cfg, out_dir=out_dir, transport=transport)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in DIGEST_FILES}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_digests(name, Path(name)) == PINNED[name]


def test_default_config_text_pinned_and_every_key_parses_back():
    text = SimConfig().to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_CONFIG_TEXT
    pairs = dict(line.split(" = ", 1) for line in text.splitlines())
    assert SimConfig.from_pairs(pairs) == SimConfig()


def test_configs_cover_every_ranker_reranker_and_policy():
    from creatorsim.core import CREATOR_POLICIES, RANKERS, RERANKERS

    used = [SimConfig(**SMALL, **c) for c in CONFIGS.values()]
    assert {c.ranker for c in used} == set(RANKERS)
    assert {c.reranker for c in used} == set(RERANKERS)
    assert {c.creator_policy for c in used} == set(CREATOR_POLICIES)
    assert any(c.workers > 1 for c in used)
    # the full-information override replaces audience beliefs, so a full
    # run must use a policy that reads them whenever it decides
    assert any(
        c.creator_full_information and c.creator_policy in ("creagent", "creagent_llm", "lbr")
        for c in used
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pinned = {name: run_digests(name, Path(name)) for name in sorted(CONFIGS)}
    print(json.dumps(pinned, indent=4))
