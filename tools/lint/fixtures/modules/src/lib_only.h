#pragma once
// Fixture: reached only from the library's own .cc.
