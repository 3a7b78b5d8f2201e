import pytest

from bsratio import primesum, ratio
from bsratio.cli import main
from bsratio.errors import VerificationError

ABOVE_GUARD = 5003  # the least prime above primesum.VERIFY_MAX_Q = 5000


@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_cost_guard_exits_2(command, capsys):
    assert main([command, "--q", str(ABOVE_GUARD)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert str(ABOVE_GUARD) in err
    assert "Traceback" not in out + err


def test_verify_guard_before_fft_route(monkeypatch, capsys):
    def no_fft(field):
        raise AssertionError("log_ratio_fft ran before the cost guard")

    monkeypatch.setattr(ratio, "log_ratio_fft", no_fft)
    assert main(["verify", "--q", str(ABOVE_GUARD)]) == 2


@pytest.mark.parametrize(
    "command,target", [("verify", "verify_ratio"), ("sigma", "prime_sum_split")]
)
def test_verification_error_is_fail_exit_1(command, target, monkeypatch, capsys):
    def disagree(*args, **kwargs):
        raise VerificationError("routes disagree")

    monkeypatch.setattr(primesum, target, disagree)
    assert main([command, "--q", "101"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL: routes disagree")


def test_verify_pass_states_what_it_checks(capsys):
    assert main(["verify", "--q", "101"]) == 0
    out = capsys.readouterr().out
    assert "direct O(q^2) L(1,chi) sums + truncated Euler product" in out
    assert "not rounding" in out
    assert out.rstrip().endswith("PASS")
