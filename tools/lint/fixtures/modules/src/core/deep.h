#pragma once
// Fixture: reached transitively.
