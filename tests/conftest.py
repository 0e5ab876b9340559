from hypothesis import settings


def pytest_addoption(parser):
    parser.addoption(
        "--full-factorizations",
        action="store_true",
        help="test_criterion_6_factorizations checks every n <= 10^6, not 10^5",
    )


# The fold property tests and the soundness oracle of test_sieve.py set no
# max_examples, so tier-1 runs hypothesis's default 100 examples each; CI
# runs them at ten times that with `pytest --hypothesis-profile=fold-ci
# -k "fold_matches_join or soundness_oracle"`.
settings.register_profile("fold-ci", max_examples=1_000)
