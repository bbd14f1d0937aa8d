#pragma once
// Fixture: an example includes this, so its allow comment is stale.
// slick-lint: allow(test-only-module) -- was test-only once.
