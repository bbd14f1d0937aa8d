#pragma once
// Fixture: shadowed — bench/'s "common.h" resolves next to the includer.
