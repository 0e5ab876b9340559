"""Inside the (20k, 99k, 101k) nonexistence certificate.

Run:  python demos/03_certificate_tour.py

The certificate is pure data: a case tree whose splits the verifier
checks for coverage and whose leaves it re-derives by finite computation
(congruence enumeration, exact k-factoring, growth-ratio inequalities).
Nothing in the file is trusted; corrupting any field breaks verification
at that exact path.
"""

import copy

from jesma.certificate import Certificate, builtin_certificates, verify_certificate


def outline(node, depth=0, limit=3):
    step = node.step
    label = step["kind"]
    for key in ("reason", "modulus", "var", "pattern", "name"):
        if key in step:
            label += f" [{key}={step[key]}]"
    print("    " * depth + label)
    if depth < limit:
        for child in node.children:
            outline(child, depth + 1, limit)
    elif node.children:
        print("    " * (depth + 1) + f"... {len(node.children)} subtrees")


cert = builtin_certificates()[0]
print(cert.title)
print("=" * len(cert.title))
outline(cert.tree)

print("\nverifying from scratch ...")
verdict = verify_certificate(cert)
print("verdict:", verdict.describe())

# Tamper with one number: the mod 17 contradiction becomes a mod 19 claim,
# which the sieve refutes by exhibiting a surviving residue assignment.
broken = copy.deepcopy(cert.to_json())
node = broken["tree"]["children"][4]["children"][3]["children"][0]["children"][0]
assert node["step"]["reason"] == "empty-congruence"
node["step"]["modulus"] = "19"
verdict = verify_certificate(Certificate.from_json(broken))
print("\nafter changing 17 -> 19:")
print("verdict:", verdict.describe())
