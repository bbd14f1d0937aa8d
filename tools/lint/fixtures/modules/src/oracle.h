#pragma once
// Fixture: test-only on purpose.
// slick-lint: allow(test-only-module) -- the tests' brute-force oracle.
