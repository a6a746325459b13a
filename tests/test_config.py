import json

import pytest

from invgate.config import RunConfig, load_config
from invgate.data import GeneratorConfig
from invgate.errors import ContractError


def test_defaults_are_consistent():
    cfg = RunConfig()
    assert cfg.output_dim == cfg.generator.dim


def test_dict_roundtrip():
    cfg = RunConfig(seed=7, irm_lambda=2.5)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_file_roundtrip(tmp_path):
    cfg = RunConfig(seed=3, fusion_mode="additive")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(p)) == cfg


def test_partial_config_fills_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 9, "generator": {"num_classes": 5, "shots": 4}}))
    cfg = load_config(str(p))
    assert cfg.seed == 9
    assert cfg.generator.num_classes == 5
    assert cfg.epochs == 50


def test_unknown_keys_rejected():
    with pytest.raises(ContractError, match="unknown config keys"):
        RunConfig.from_dict({"learning_rate": 0.1})
    with pytest.raises(ContractError, match="unknown generator keys"):
        RunConfig.from_dict({"generator": {"n_classes": 5}})


def test_step2_requires_step1_or_override():
    with pytest.raises(ContractError):
        RunConfig(enable_step1=False, enable_step2=True)
    cfg = RunConfig(enable_step1=False, enable_step2=True, invariance_on_all=True)
    assert cfg.invariance_on_all


def test_identity_init_needs_matching_dims():
    with pytest.raises(ContractError):
        RunConfig(output_dim=12)
    with pytest.raises(ContractError):
        RunConfig(encoder_hidden=(32,))
    RunConfig(encoder_hidden=(32,), encoder_init="random", output_dim=12)


def test_generator_knobs_validated():
    with pytest.raises(ContractError):
        GeneratorConfig(p_conflict=1.5)
    with pytest.raises(ContractError):
        GeneratorConfig(confound_shared_frac=-0.1)


def test_replace_revalidates():
    cfg = RunConfig()
    with pytest.raises(ContractError):
        cfg.replace(mining_rho=0.0)


@pytest.mark.parametrize("data", [[["epochs", 3]], "epochs", 3, {"generator": [1]}],
                         ids=["pairs", "string", "number", "generator_list"])
def test_non_object_config_rejected(data):
    with pytest.raises(ContractError, match="must be a JSON object"):
        RunConfig.from_dict(data)


def test_replace_rejects_unknown_keys():
    with pytest.raises(ContractError, match="unknown config keys"):
        RunConfig().replace(learning_rate=0.1)


@pytest.mark.parametrize("overrides", [
    {"irm_variant": "irm"},
    {"irm_variant": "mm_rex", "rex_lambda_min": 0.9},
    {"include_25d": True, "rex_lambda_min": 0.4},
    {"fusion_phi": 0.0},
    {"align_tau": 0.0},
    {"rex_beta": -0.5},
    {"irm_lambda": -1.0},
    {"mining_warmup": 0},
    {"mining_period": 0},
    {"mining_topk": 0},
    {"posterior_p2": 0.0},
    {"posterior_p3": 1.5},
    {"base_lr": 0.0},
    {"base_lr": float("nan")},
    {"head_scale": -1.0},
    {"weight_decay": -1.0},
    {"encoder_init": "random", "output_dim": 0},
    {"momentum": 1.0},
    {"view_attention_delta": 2.0},
    {"fusion_mode": "product"},
    {"align_alpha": float("nan")},
    {"enable_step1": False, "invariance_on_all": True, "inv_theta": float("nan")},
    {"irm_variant": "mm_rex", "rex_lambda_min": float("nan")},
    {"align_tau": float("inf")},
    {"generator": {"sigma_invariant": float("nan")}},
    {"use_view_attention": True, "view_attention_hidden": -1},
    {"encoder_init": "random", "encoder_hidden": (-2,)},
    {"encoder_init": "random", "encoder_hidden": (0,)},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_rejected_at_construction(overrides):
    with pytest.raises(ContractError):
        RunConfig.from_dict(overrides)


def test_boundary_values_accepted():
    RunConfig(rex_lambda_min=0.5, rex_beta=0.0, irm_lambda=0.0, posterior_p2=1.0,
              posterior_p3=1.0, mining_warmup=1, mining_period=1, mining_topk=1)
    RunConfig(include_25d=True, rex_lambda_min=1.0 / 3.0)
    RunConfig(weight_decay=0.0, momentum=0.0, view_attention_delta=0.0)
    RunConfig(view_attention_delta=1.0, fusion_mode="add")
