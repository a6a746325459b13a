import dataclasses
import json
import sys

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
    for name in ("sigma_invariant", "sigma_confound"):
        with pytest.raises(ContractError, match=f"{name} must be >= 0"):
            GeneratorConfig(**{name: -0.01})
    GeneratorConfig(sigma_invariant=0.0, sigma_confound=0.0)


def test_replace_revalidates():
    cfg = RunConfig()
    with pytest.raises(ContractError):
        cfg.replace(mining_rho=0.0)


@pytest.mark.parametrize("data", [[["epochs", 3]], "epochs", 3, {"generator": [1]},
                                  {"generator": None, "epochs": 1}],
                         ids=["pairs", "string", "number", "generator_list", "generator_null"])
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
    {"inv_theta": -5.0},
    {"inv_theta": 0.0},
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
    {"encoder_init": "xavier"},
    {"head2d_mode": "linear"},
    {"head3d_mode": "linear"},
    {"momentum": 1.0},
    {"view_attention_delta": 2.0},
    {"fusion_mode": "product"},
    {"align_alpha": float("nan")},
    {"enable_step1": False, "invariance_on_all": True, "inv_theta": float("nan")},
    {"irm_variant": "mm_rex", "rex_lambda_min": float("nan")},
    {"align_tau": float("inf")},
    {"generator": {"sigma_invariant": float("nan")}},
    {"generator": {"sigma_invariant": -0.3}},
    {"generator": {"sigma_confound": -0.05}},
    {"use_view_attention": True, "view_attention_hidden": -1},
    {"encoder_init": "random", "encoder_hidden": (-2,)},
    {"encoder_init": "random", "encoder_hidden": (0,)},
    {"epochs": True},
    {"encoder_hidden": 5},
    {"encoder_init": "random", "encoder_hidden": [4.0]},
    {"seed": -1},
    {"generator": {"seed": -1}},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_rejected_at_construction(overrides):
    with pytest.raises(ContractError):
        RunConfig.from_dict(overrides)


# a value of another type than each field's, chosen by the field's annotation
_WRONG_TYPE = {"int": 2.5, "float": "0.5", "bool": "no", "str": 5, "tuple[int, ...]": ["a"]}


@pytest.mark.parametrize("cls,name,value", [
    pytest.param(cls, f.name, _WRONG_TYPE[f.type], id=f"{cls.__name__}-{f.name}")
    for cls in (RunConfig, GeneratorConfig)
    for f in dataclasses.fields(cls) if f.type in _WRONG_TYPE
])
def test_wrongly_typed_field_rejected(cls, name, value):
    with pytest.raises(ContractError, match=f"^{name} must be "):
        cls(**{name: value})


def test_boundary_values_accepted():
    RunConfig(rex_lambda_min=0.5, rex_beta=0.0, irm_lambda=0.0, posterior_p2=1.0,
              posterior_p3=1.0, mining_warmup=1, mining_period=1, mining_topk=1)
    RunConfig(include_25d=True, rex_lambda_min=1.0 / 3.0)
    RunConfig(weight_decay=0.0, momentum=0.0, view_attention_delta=0.0)
    RunConfig(view_attention_delta=1.0, fusion_mode="add")
    # a float field keeps an int as given, so a manifest keeps its bytes
    cfg = RunConfig.from_dict({"base_lr": 1, "generator": {"p_conflict": 0}})
    assert type(cfg.to_dict()["base_lr"]) is int and type(cfg.generator.p_conflict) is int


def test_generator_must_be_a_generator_config():
    with pytest.raises(ContractError, match="^generator must be a GeneratorConfig, got "):
        RunConfig(generator={"seed": 1})


@pytest.mark.parametrize("overrides,message", [
    ({"inv_theta": 720}, "inv_theta 720 overflows: exp(inv_theta) summed over 128 rows"),
    ({"align_tau": 1000}, "align_tau 1000 overflows: exp(align_tau) summed over 32 rows"),
    ({"inv_theta": 1e6, "irm_variant": "mm_rex"}, "inv_theta 1000000.0 overflows"),
    # 4 classes x 2 shots make 8 rows, but a loaded dataset can fill 32-row batches
    ({"align_tau": 707, "generator": GeneratorConfig(num_classes=4, shots=2)},
     "align_tau 707 overflows: exp(align_tau) summed over 32 rows"),
    # alignment is at most log(32) + 2 * 2.0
    ({"align_alpha": sys.float_info.max},
     "align_alpha 1.7976931348623157e+308 overflows: align_alpha times its term's worst case "
     "7.46"),
    # two environments' IRMv1 penalties, each at most 4 * irm_lambda
    ({"irm_variant": "irmv1", "irm_lambda": sys.float_info.max},
     "irm_lambda 1.7976931348623157e+308 overflows: irm_lambda times its term's worst case 8 "),
    # a third environment: 12 * irm_lambda overflows where 8 * irm_lambda would not
    ({"irm_variant": "irmv1", "include_25d": True, "irm_lambda": sys.float_info.max / 11},
     "irm_lambda 1.6342664862384688e+307 overflows: irm_lambda times its term's worst case 12 "),
], ids=["inv_theta", "align_tau", "mm_rex", "small_generator", "align_alpha", "irm_lambda",
        "irm_lambda_25d"])
def test_overflowing_exponentials_rejected(overrides, message):
    with pytest.raises(ContractError) as err:
        RunConfig(**overrides)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("overrides", [
    {"irm_variant": "irmv1", "inv_theta": 1e6},     # irmv1 scores its risks at theta = 1
    {"enable_step2": False, "inv_theta": 1e6},
    {"enable_align": False, "align_tau": 1000},
    {"enable_align": False, "align_alpha": sys.float_info.max},
    {"irm_variant": "v_rex", "irm_lambda": sys.float_info.max},    # REx reads no lambda
    {"enable_step2": False, "irm_variant": "irmv1", "irm_lambda": sys.float_info.max},
], ids=["irmv1", "step2_off", "align_off", "alpha_align_off", "lambda_v_rex",
        "lambda_step2_off"])
def test_unused_exponent_has_no_bound(overrides):
    RunConfig(**overrides)
