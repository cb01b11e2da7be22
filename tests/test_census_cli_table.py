"""Exact CLI output of the census commands, pinned as a table.

Every counting-measure path that reaches the census (zeta weil, count
census/sym/points, check totaro/bundle) is listed with its exact stdout,
stderr and exit code, so a change to how the census or its zeta series is
computed cannot change what the command line prints.
"""

import pytest

from wittzeta import cli

# (argv, exit code, stdout, stderr); no argument contains a space
TABLE = [
    (
        "zeta weil --variety pt --q 3 --prec 8",
        0,
        "1 + t + t^2 + t^3 + t^4 + t^5 + t^6 + t^7 + t^8 + O(t^9)\n",
        "",
    ),
    (
        "zeta weil --variety pt --q 4 --prec 8",
        0,
        "1 + t + t^2 + t^3 + t^4 + t^5 + t^6 + t^7 + t^8 + O(t^9)\n",
        "",
    ),
    (
        "zeta weil --variety a1 --q 3 --prec 8",
        0,
        (
            "1 + 3*t + 9*t^2 + 27*t^3 + 81*t^4 + 243*t^5 + 729*t^6 + "
            "2187*t^7 + 6561*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety a1 --q 4 --prec 8",
        0,
        (
            "1 + 4*t + 16*t^2 + 64*t^3 + 256*t^4 + 1024*t^5 + 4096*t^6 + "
            "16384*t^7 + 65536*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety a2 --q 3 --prec 8",
        0,
        (
            "1 + 9*t + 81*t^2 + 729*t^3 + 6561*t^4 + 59049*t^5 + "
            "531441*t^6 + 4782969*t^7 + 43046721*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety a2 --q 4 --prec 8",
        0,
        (
            "1 + 16*t + 256*t^2 + 4096*t^3 + 65536*t^4 + 1048576*t^5 + "
            "16777216*t^6 + 268435456*t^7 + 4294967296*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety gm --q 3 --prec 8",
        0,
        (
            "1 + 2*t + 6*t^2 + 18*t^3 + 54*t^4 + 162*t^5 + 486*t^6 + "
            "1458*t^7 + 4374*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety gm --q 4 --prec 8",
        0,
        (
            "1 + 3*t + 12*t^2 + 48*t^3 + 192*t^4 + 768*t^5 + 3072*t^6 + "
            "12288*t^7 + 49152*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety p1 --q 3 --prec 8",
        0,
        (
            "1 + 4*t + 13*t^2 + 40*t^3 + 121*t^4 + 364*t^5 + 1093*t^6 + "
            "3280*t^7 + 9841*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety p1 --q 4 --prec 8",
        0,
        (
            "1 + 5*t + 21*t^2 + 85*t^3 + 341*t^4 + 1365*t^5 + 5461*t^6 + "
            "21845*t^7 + 87381*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety p2 --q 3 --prec 8",
        0,
        (
            "1 + 13*t + 130*t^2 + 1210*t^3 + 11011*t^4 + 99463*t^5 + "
            "896260*t^6 + 8069620*t^7 + 72636421*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety p2 --q 4 --prec 8",
        0,
        (
            "1 + 21*t + 357*t^2 + 5797*t^3 + 93093*t^4 + 1490853*t^5 + "
            "23859109*t^6 + 381767589*t^7 + 6108368805*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety e5 --prec 8",
        0,
        (
            "1 + 9*t + 54*t^2 + 279*t^3 + 1404*t^4 + 7029*t^5 + "
            "35154*t^6 + 175779*t^7 + 878904*t^8 + O(t^9)\n"
        ),
        "",
    ),
    (
        "zeta weil --variety e5 --q 25 --prec 4",
        0,
        "1 + 27*t + 702*t^2 + 17577*t^3 + 439452*t^4 + O(t^5)\n",
        "",
    ),
    (
        "zeta weil --variety p2 --q 5 --prec 6 --json",
        0,
        (
            "{\"precision\": 6, \"coeffs\": [\"1\", \"31\", \"806\", \"20306\", "
            "\"508431\", \"12714681\", \"317886556\"], \"measure\": \"counting\", "
            "\"class\": \"projective(2)\"}\n"
        ),
        "",
    ),
    (
        "zeta weil --variety e5 --prec 6 --rationalize --dmax 2",
        0,
        "(1 + 3*t + 5*t^2)/(1 - 6*t + 5*t^2)\n",
        "",
    ),
    (
        "count census --variety pt --q 3 --degree 6",
        0,
        "1, 0, 0, 0, 0, 0\n",
        "",
    ),
    (
        "count census --variety a1 --q 3 --degree 6",
        0,
        "3, 3, 8, 18, 48, 116\n",
        "",
    ),
    (
        "count census --variety a2 --q 3 --degree 6",
        0,
        "9, 36, 240, 1620, 11808, 88440\n",
        "",
    ),
    (
        "count census --variety gm --q 3 --degree 6",
        0,
        "2, 3, 8, 18, 48, 116\n",
        "",
    ),
    (
        "count census --variety p1 --q 3 --degree 6",
        0,
        "4, 3, 8, 18, 48, 116\n",
        "",
    ),
    (
        "count census --variety p2 --q 3 --degree 6",
        0,
        "13, 39, 248, 1638, 11856, 88556\n",
        "",
    ),
    (
        "count census --variety e5 --degree 6",
        0,
        "9, 9, 33, 162, 612, 2571\n",
        "",
    ),
    (
        "count census --variety gm --q 4 --degree 6 --json",
        0,
        "{\"counts\": [\"3\", \"6\", \"20\", \"60\", \"204\", \"670\"]}\n",
        "",
    ),
    (
        "count census --variety p1 --q 3 --degree 0",
        0,
        "\n",
        "",
    ),
    (
        "count census --variety p1 --q 3 --degree -1",
        2,
        "",
        "error: --degree must be at least 0, got -1\n",
    ),
    (
        "count sym --variety pt --q 3 --degree 6",
        0,
        "1, 1, 1, 1, 1, 1, 1\n",
        "",
    ),
    (
        "count sym --variety a1 --q 3 --degree 6",
        0,
        "1, 3, 9, 27, 81, 243, 729\n",
        "",
    ),
    (
        "count sym --variety a2 --q 3 --degree 6",
        0,
        "1, 9, 81, 729, 6561, 59049, 531441\n",
        "",
    ),
    (
        "count sym --variety gm --q 3 --degree 6",
        0,
        "1, 2, 6, 18, 54, 162, 486\n",
        "",
    ),
    (
        "count sym --variety p1 --q 3 --degree 6",
        0,
        "1, 4, 13, 40, 121, 364, 1093\n",
        "",
    ),
    (
        "count sym --variety p2 --q 3 --degree 6",
        0,
        "1, 13, 130, 1210, 11011, 99463, 896260\n",
        "",
    ),
    (
        "count sym --variety e5 --degree 6",
        0,
        "1, 9, 54, 279, 1404, 7029, 35154\n",
        "",
    ),
    (
        "count sym --variety gm --q 4 --degree 6 --json",
        0,
        "{\"counts\": [\"1\", \"3\", \"12\", \"48\", \"192\", \"768\", \"3072\"]}\n",
        "",
    ),
    (
        "count sym --variety p1 --q 3 --degree 0",
        0,
        "1\n",
        "",
    ),
    (
        "count sym --variety p1 --q 3 --degree -1",
        2,
        "",
        "error: --degree must be at least 0, got -1\n",
    ),
    (
        "check totaro --variety p1 --q 13 --n 1 --prec 8 --trace",
        0,
        (
            "link 1: zeta(X x A^n) = zeta(X) * zeta(A^n): HOLDS (precision 8)\n"
            "link 2: zeta(X) * zeta(A^n) = zeta(X) * zeta(A^1)^{*n}: HOLDS (precision 8)\n"
            "link 3: zeta(X) * zeta(A^1)^{*n} = zeta(X) * [mu(L)]^{*n}: HOLDS (precision 8)\n"
            "link 4: zeta(X) * [mu(L)]^{*n} = zeta(X) * [mu(L)^n]: HOLDS (precision 8)\n"
            "link 5: zeta(X) * [mu(L)^n] = zeta(X; mu(L)^n t): HOLDS (precision 8)\n"
            "TRACE HOLDS (precision 8)\n"
        ),
        "",
    ),
    (
        "check totaro --variety gm --q 3 --n 2 --prec 6 --trace",
        0,
        (
            "link 1: zeta(X x A^n) = zeta(X) * zeta(A^n): HOLDS (precision 6)\n"
            "link 2: zeta(X) * zeta(A^n) = zeta(X) * zeta(A^1)^{*n}: HOLDS (precision 6)\n"
            "link 3: zeta(X) * zeta(A^1)^{*n} = zeta(X) * [mu(L)]^{*n}: HOLDS (precision 6)\n"
            "link 4: zeta(X) * [mu(L)]^{*n} = zeta(X) * [mu(L)^n]: HOLDS (precision 6)\n"
            "link 5: zeta(X) * [mu(L)^n] = zeta(X; mu(L)^n t): HOLDS (precision 6)\n"
            "TRACE HOLDS (precision 6)\n"
        ),
        "",
    ),
    (
        "check totaro --variety e5 --n 1 --prec 5 --trace",
        0,
        (
            "link 1: zeta(X x A^n) = zeta(X) * zeta(A^n): HOLDS (precision 5)\n"
            "link 2: zeta(X) * zeta(A^n) = zeta(X) * zeta(A^1)^{*n}: HOLDS (precision 5)\n"
            "link 3: zeta(X) * zeta(A^1)^{*n} = zeta(X) * [mu(L)]^{*n}: HOLDS (precision 5)\n"
            "link 4: zeta(X) * [mu(L)]^{*n} = zeta(X) * [mu(L)^n]: HOLDS (precision 5)\n"
            "link 5: zeta(X) * [mu(L)^n] = zeta(X; mu(L)^n t): HOLDS (precision 5)\n"
            "TRACE HOLDS (precision 5)\n"
        ),
        "",
    ),
    (
        "check totaro --variety a1 --q 4 --n 1 --prec 6 --trace --json",
        0,
        (
            "{\"holds\": true, \"precision\": 6, "
            "\"links\": [{\"claim\": \"zeta(X x A^n) = zeta(X) * zeta(A^n)\", "
            "\"holds\": true, \"precision\": 6, \"label\": \"link 1\"}, "
            "{\"claim\": \"zeta(X) * zeta(A^n) = zeta(X) * zeta(A^1)^{*n}\", "
            "\"holds\": true, \"precision\": 6, \"label\": \"link 2\"}, "
            "{\"claim\": \"zeta(X) * zeta(A^1)^{*n} = zeta(X) * [mu(L)]^{*n}\", "
            "\"holds\": true, \"precision\": 6, \"label\": \"link 3\"}, "
            "{\"claim\": \"zeta(X) * [mu(L)]^{*n} = zeta(X) * [mu(L)^n]\", "
            "\"holds\": true, \"precision\": 6, \"label\": \"link 4\"}, "
            "{\"claim\": \"zeta(X) * [mu(L)^n] = zeta(X; mu(L)^n t)\", "
            "\"holds\": true, \"precision\": 6, \"label\": \"link 5\"}]}\n"
        ),
        "",
    ),
    (
        "check bundle --variety p1 --q 3 --prec 6",
        0,
        "HOLDS (precision 6)\n",
        "",
    ),
    (
        "check bundle --variety gm --q 5 --n 2 --kind projective --prec 6",
        0,
        "HOLDS (precision 6)\n",
        "",
    ),
    (
        "check bundle --variety e5 --prec 5",
        0,
        "HOLDS (precision 5)\n",
        "",
    ),
    (
        "check bundle --variety a2 --q 3 --kind projective --prec 6 --json",
        0,
        (
            "{\"holds\": true, \"precision\": 6, "
            "\"label\": \"projective bundle\"}\n"
        ),
        "",
    ),
    (
        "count points --variety p1 --q 5 --m 0",
        2,
        "",
        "error: --m must be at least 1, got 0\n",
    ),
    (
        "count points --variety p1 --q 5 --m -1",
        2,
        "",
        "error: --m must be at least 1, got -1\n",
    ),
    (
        "count points --variety e5 --m 0",
        2,
        "",
        "error: --m must be at least 1, got 0\n",
    ),
    (
        "count points --variety gm --q 3 --m -1",
        2,
        "",
        "error: --m must be at least 1, got -1\n",
    ),
    (
        "count points --variety a2 --q 4 --m 0 --json",
        2,
        "",
        "error: --m must be at least 1, got 0\n",
    ),
    (
        "count points --variety a1 --q 6",
        2,
        "",
        "error: 6 is not a prime power\n",
    ),
    (
        "count points --variety p2 --q 4 --m 3 --json",
        0,
        "{\"value\": \"4161\"}\n",
        "",
    ),
    # a two-variable full grid over F_(2^10): q^2 elements from q-sized axes
    (
        (
            "count points --variety {\"ambient\":{\"affine\":2},"
            "\"equations\":[\"x^3+y^3+x*y+1\"]} --q 1024"
        ),
        0,
        "3069\n",
        "",
    ),
    # a four-variable full grid over a prime field
    (
        (
            "count points --variety {\"p\":13,"
            "\"ambient\":{\"affine\":4},"
            "\"equations\":[\"x^3+y^3+z^3+w^3+x*y*z*w-1\"]}"
        ),
        0,
        "2820\n",
        "",
    ),
    # a quadric and a cubic in P^3, split across two threads
    (
        (
            "count census --variety {\"p\":37,"
            "\"ambient\":{\"projective\":3},"
            "\"equations\":[\"x^2+y^2+y*z+z^2+w^2+x*w\","
            "\"x^3+y^3+z^3+w^3+x*y*z+y*z*w+x*z^2\"]} --degree 1 --threads 2"
        ),
        0,
        "30\n",
        "",
    ),
    # the same curve over F_7 and F_49, where the F_49 grid is split
    (
        (
            "count census --variety {\"p\":7,"
            "\"ambient\":{\"projective\":3},"
            "\"equations\":[\"x^2+y^2+y*z+z^2+w^2+x*w\","
            "\"x^3+y^3+z^3+w^3+x*y*z+y*z*w+x*z^2\"]} --degree 2 --threads 2"
        ),
        0,
        "11, 28\n",
        "",
    ),
    # a binary cubic form: a one-variable full-grid chart
    (
        (
            "count census --variety {\"p\":5,"
            "\"ambient\":{\"projective\":1},"
            "\"equations\":[\"x^3+2*x*y^2+y^3\"]} --degree 8"
        ),
        0,
        "0, 0, 1, 0, 0, 0, 0, 0\n",
        "",
    ),
]


@pytest.mark.parametrize(
    "argv, code, out, err", TABLE, ids=[row[0] for row in TABLE]
)
def test_census_cli_output_is_pinned(capsys, argv, code, out, err):
    assert cli.main(argv.split()) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
