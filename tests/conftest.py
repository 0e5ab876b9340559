from hypothesis import settings


def pytest_addoption(parser):
    parser.addoption(
        "--full-factorizations",
        action="store_true",
        help="test_criterion_6_factorizations checks every n <= 10^6, not 10^5",
    )


# The fold property tests and the soundness oracle of test_sieve.py, and the
# exponent bound on a box of test_context.py, set no max_examples, so tier-1
# runs hypothesis's default 100 examples each; CI runs them at ten times that
# with `pytest tests/test_sieve.py tests/test_context.py
# --hypothesis-profile=fold-ci -k "fold_matches_join or soundness_oracle or
# exp_lower_bound_holds_on_a_box"`.
settings.register_profile("fold-ci", max_examples=1_000)
